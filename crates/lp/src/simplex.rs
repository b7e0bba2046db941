//! Bounded-variable dense primal simplex with in-place re-solves after
//! bound tightenings.
//!
//! The models produced by the register-saturation formulations are small
//! (hundreds of rows and columns), dense-tableau simplex is the simplest
//! correct implementation at that scale, and determinism falls out for free.
//!
//! ## Bounded variables
//!
//! Finite upper bounds are handled **implicitly**: every column carries a
//! status — basic, nonbasic-at-lower, or nonbasic-at-upper — and the ratio
//! test considers three events (a basic variable reaching its lower bound,
//! a basic variable reaching its *upper* bound, and the entering variable
//! flipping straight to its opposite bound without a basis change). The
//! standard form therefore contains **only the structural constraint
//! rows**: no `x ≤ u` bound rows and no bound slacks. The RS linearizations
//! are almost entirely binary variables, so this halves both tableau
//! dimensions compared to the explicit-bound-row formulation (kept as a
//! differential reference in [`crate::reference`]) and shrinks the dense
//! pivot area ~4×.
//!
//! Conversion to standard form:
//! 1. every variable is shifted by its (finite) lower bound, so all
//!    structural variables are `≥ 0` with range `hi − lo` (possibly `∞`);
//! 2. `≤` / `≥` rows receive slack / surplus variables, negative right-hand
//!    sides are negated, and rows without a ready basic column receive an
//!    artificial variable;
//! 3. phase 1 minimizes the artificial sum (infeasible iff it stays
//!    positive), phase 2 optimizes the true objective.
//!
//! The right-hand-side column always stores the **actual basic values**:
//! contributions of nonbasic-at-upper columns are folded in
//! (`rhs = B⁻¹b − Σ_{j at upper} T·ⱼ uⱼ`), and every status change
//! folds/unfolds the affected column, so feasibility is simply
//! `0 ≤ rhs(r) ≤ range(basic(r))`.
//!
//! Anti-cycling: Dantzig pricing normally, with a permanent switch to
//! Bland's rule (smallest eligible entering index, smallest basic index on
//! ratio ties) after an iteration budget proportional to the tableau size.
//! Bound flips move the objective strictly and cannot cycle.
//!
//! ## Re-solves after bound tightenings
//!
//! A bound tightening leaves the constraint matrix untouched, so
//! [`DiveTableau`] keeps a cold solve's optimal tableau live and applies
//! each tightening in place as rank-1 right-hand-side folds, then restores
//! primal feasibility by dual simplex priced by dual steepest edge. The
//! MILP driver uses it for its diving heuristic and its strong-branching
//! probes; tree nodes solve cold on purpose (see `crate::milp` for why).
//!
//! ## Pivot loop
//!
//! The pivot kernel is sparse-aware: the normalized pivot row is snapshot
//! into a scratch buffer together with its nonzero index mask, and each
//! eliminated row either walks only the nonzero columns or, when the pivot
//! row is dense, runs a contiguous `zip` loop that the compiler
//! autovectorizes (no per-element `row * width + col` indexing).

use crate::model::{Cmp, Model, Sense};
use crate::EPS;

/// Pivot elements smaller than this are refused: instead of dividing by a
/// near-zero (silent garbage in release builds), the solve reports
/// [`LpOutcome::PivotTooSmall`] (a dive step [`DiveStep::Stalled`]).
const PIVOT_MIN: f64 = 1e-11;

/// Columns whose range (`hi − lo`) is at most this are *fixed*: they can
/// never profitably enter the basis, and their reduced cost is vacuously
/// dual feasible (the variable cannot move in either direction).
const FIXED_TOL: f64 = 1e-9;

/// Floor for dual steepest-edge reference weights: float cancellation in
/// the exact update recurrence can drive a weight slightly negative, and a
/// non-positive weight would flip the pricing ratio's sign.
const DSE_MIN: f64 = 1e-10;

/// A feasible (optimal) LP solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Value per model variable, indexed by `VarId::index()`.
    pub values: Vec<f64>,
    /// Objective value in the model's own sense.
    pub objective: f64,
}

/// Result of an LP relaxation solve.
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// Proven optimal solution.
    Optimal(Solution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The solve stalled and was abandoned rather than risk a garbage
    /// result: a pivot element fell below the numeric threshold, or the
    /// pivot loop hit its hard iteration cap. Degenerate models fail soft
    /// with this outcome; callers treat it as "no answer", not as a
    /// verdict about the model.
    PivotTooSmall,
    /// The attached cancel token tripped mid-solve: "no answer" like a
    /// stall, but caused by the caller, not by the model's numerics.
    Cancelled,
}

/// Work counters of one cold solve. The cold path is primal only; the
/// dual-repair work of later tightenings is read off
/// [`DiveTableau::work`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LpStats {
    /// Full tableau eliminations.
    pub pivots: usize,
    /// Bound flips: a nonbasic column moved to its opposite bound with a
    /// rank-1 right-hand-side update instead of a pivot.
    pub bound_flips: usize,
}

/// Position of a column relative to the current basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColStatus {
    Basic,
    /// Nonbasic at its lower bound (shifted value `0`).
    Lower,
    /// Nonbasic at its (finite) upper bound (shifted value `range`).
    Upper,
}

/// Why a pivot loop gave up without an answer.
enum Abort {
    /// A pivot element below [`PIVOT_MIN`], or the iteration hard cap.
    Stall,
    /// The attached cancel token tripped.
    Cancelled,
}

impl Abort {
    fn outcome(self) -> LpOutcome {
        match self {
            Abort::Stall => LpOutcome::PivotTooSmall,
            Abort::Cancelled => LpOutcome::Cancelled,
        }
    }
}

/// Outcome of the dual simplex repair loop.
enum DualStatus {
    /// Primal feasibility restored; the basis is optimal (the cost row was
    /// and stays dual feasible).
    Feasible,
    /// A row proves primal infeasibility.
    Infeasible,
    /// Iteration budget exhausted without convergence.
    Stalled,
}

struct Tableau {
    /// (m + 1) rows × (ncols + 1) columns, row-major; last row is the cost
    /// row, last column the right-hand side (= actual basic values, with
    /// nonbasic-at-upper contributions folded in).
    t: Vec<f64>,
    m: usize,
    ncols: usize,
    basis: Vec<usize>,
    /// Column status (basic / at-lower / at-upper).
    status: Vec<ColStatus>,
    /// Shifted upper bound (`hi − lo`) per column; `∞` for slacks,
    /// surpluses, and artificials.
    range: Vec<f64>,
    /// Columns that may enter the basis (artificials are disabled after
    /// phase 1).
    allowed: Vec<bool>,
    /// Eliminations performed.
    pivots: usize,
    /// Bound flips performed.
    flips: usize,
    /// Dual-repair pivots (every one priced by dual steepest edge).
    dse_pivots: usize,
    /// Dual steepest-edge reference weights, `w_r = ‖row_r‖²` over the
    /// structural + slack + artificial columns (rhs excluded). Empty until
    /// [`Tableau::ensure_dse`] initializes them; from then on every pivot
    /// keeps them exact. Bound flips and rhs folds touch only the rhs
    /// column, so they leave the weights untouched.
    dse: Vec<f64>,
    /// Reused snapshot of the normalized pivot row.
    scratch_row: Vec<f64>,
    /// Reused nonzero-column mask of the pivot row.
    scratch_nz: Vec<u32>,
    /// Cooperative cancellation, polled in full (flag, deadline, poll
    /// countdown) every [`CANCEL_CHECK_MASK`]+1 pivot-loop iterations. A
    /// tripped token aborts the optimization as [`Abort::Cancelled`]
    /// (callers surface it as [`LpOutcome::Cancelled`] /
    /// [`DiveStep::Cancelled`]). `None` — the default — costs one branch
    /// per check window.
    cancel: Option<crate::cancel::Cancel>,
}

/// Pivot-loop iterations between cancellation checks (power of two minus
/// one, used as a mask).
const CANCEL_CHECK_MASK: usize = 127;

/// Hand-written so that [`Clone::clone_from`] refills the destination's
/// buffers in place: the derived impl is `*self = src.clone()`, which
/// reallocates the whole `(m+1)×(n+1)` tableau on every probe and dive
/// snapshot. The pivot scratch buffers hold nothing between pivots, so a
/// clone starts them empty and a refill keeps its own.
impl Clone for Tableau {
    fn clone(&self) -> Self {
        Tableau {
            t: self.t.clone(),
            m: self.m,
            ncols: self.ncols,
            basis: self.basis.clone(),
            status: self.status.clone(),
            range: self.range.clone(),
            allowed: self.allowed.clone(),
            pivots: self.pivots,
            flips: self.flips,
            dse_pivots: self.dse_pivots,
            dse: self.dse.clone(),
            scratch_row: Vec::new(),
            scratch_nz: Vec::new(),
            cancel: self.cancel.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Tableau {
            t,
            m,
            ncols,
            basis,
            status,
            range,
            allowed,
            pivots,
            flips,
            dse_pivots,
            dse,
            scratch_row: _,
            scratch_nz: _,
            cancel,
        } = src;
        self.t.clone_from(t);
        self.m = *m;
        self.ncols = *ncols;
        self.basis.clone_from(basis);
        self.status.clone_from(status);
        self.range.clone_from(range);
        self.allowed.clone_from(allowed);
        self.pivots = *pivots;
        self.flips = *flips;
        self.dse_pivots = *dse_pivots;
        self.dse.clone_from(dse);
        self.cancel.clone_from(cancel);
    }
}

impl Tableau {
    fn new(m: usize, ncols: usize, range: Vec<f64>) -> Self {
        #[expect(
            clippy::disallowed_macros,
            reason = "shape invariant of the private constructor; a mismatch panics on first indexed access anyway"
        )]
        {
            debug_assert_eq!(range.len(), ncols);
        }
        Tableau {
            t: vec![0.0; (m + 1) * (ncols + 1)],
            m,
            ncols,
            basis: vec![usize::MAX; m],
            status: vec![ColStatus::Lower; ncols],
            range,
            allowed: vec![true; ncols],
            pivots: 0,
            flips: 0,
            dse_pivots: 0,
            dse: Vec::new(),
            scratch_row: Vec::new(),
            scratch_nz: Vec::new(),
            cancel: None,
        }
    }

    /// Has the attached cancel token (if any) tripped? Amortized: only
    /// polled when `iters` crosses a check-window boundary.
    #[inline]
    fn cancelled_at(&self, iters: usize) -> bool {
        iters & CANCEL_CHECK_MASK == 0 && self.cancel.as_ref().is_some_and(|c| c.cancelled())
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * (self.ncols + 1) + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.t[r * (self.ncols + 1) + c] = v;
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.ncols)
    }

    /// Upper range of the basic variable of row `r`.
    #[inline]
    fn basic_range(&self, r: usize) -> f64 {
        self.range[self.basis[r]]
    }

    /// Is a nonbasic column eligible to move (not fixed, not disabled)?
    #[inline]
    fn movable(&self, j: usize) -> bool {
        self.allowed[j] && self.status[j] != ColStatus::Basic && self.range[j] > FIXED_TOL
    }

    fn pivot(&mut self, row: usize, col: usize) -> Result<(), Abort> {
        let w = self.ncols + 1;
        let piv = self.at(row, col);
        if piv.abs() <= PIVOT_MIN {
            return Err(Abort::Stall);
        }
        self.pivots += 1;
        // Normalize pivot row.
        let inv = 1.0 / piv;
        let rs = row * w;
        for x in &mut self.t[rs..rs + w] {
            *x *= inv;
        }
        // Snapshot the normalized pivot row and its nonzero columns so the
        // elimination below neither re-reads through `self.t` (which blocks
        // autovectorization) nor touches columns the pivot row cannot
        // change.
        let mut prow = std::mem::take(&mut self.scratch_row);
        let mut pnz = std::mem::take(&mut self.scratch_nz);
        prow.clear();
        prow.extend_from_slice(&self.t[rs..rs + w]);
        pnz.clear();
        for (j, &v) in prow.iter().enumerate() {
            if v.abs() > 1e-13 {
                pnz.push(j as u32);
            }
        }
        let dense = pnz.len() * 2 >= w;
        // Dual steepest-edge bookkeeping: the new pivot-row weight is
        // `‖prow‖²` (rhs column excluded), and each eliminated row updates
        // by the exact recurrence
        //   w_i' = w_i − 2·f_i·(row_i · prow) + f_i²·‖prow‖²
        // whose dot product runs over the row's *pre-elimination* values —
        // accumulated inside the elimination loop itself, so the update
        // costs one extra multiply-add per touched element.
        let track_dse = !self.dse.is_empty();
        let wr_new = if track_dse {
            let mut s = 0.0;
            for &j in &pnz {
                let j = j as usize;
                if j < self.ncols {
                    s += prow[j] * prow[j];
                }
            }
            s
        } else {
            0.0
        };
        // Eliminate the column elsewhere.
        for r in 0..=self.m {
            if r == row {
                continue;
            }
            let or_s = r * w;
            let factor = self.t[or_s + col];
            if factor.abs() <= 1e-12 {
                continue;
            }
            let row_slice = &mut self.t[or_s..or_s + w];
            if track_dse && r < self.m {
                // The dot accumulates over every column including the rhs;
                // the rhs contribution (old value × prow rhs entry) is
                // removed afterwards so the weight stays a structural norm.
                let old_rhs = row_slice[w - 1];
                let mut dot = 0.0;
                if dense {
                    for (x, &p) in row_slice.iter_mut().zip(prow.iter()) {
                        dot += *x * p;
                        *x -= factor * p;
                    }
                } else {
                    for &j in &pnz {
                        let j = j as usize;
                        dot += row_slice[j] * prow[j];
                        row_slice[j] -= factor * prow[j];
                    }
                }
                dot -= old_rhs * prow[w - 1];
                self.dse[r] =
                    (self.dse[r] - 2.0 * factor * dot + factor * factor * wr_new).max(DSE_MIN);
            } else if dense {
                for (x, &p) in row_slice.iter_mut().zip(prow.iter()) {
                    *x -= factor * p;
                }
            } else {
                for &j in &pnz {
                    let j = j as usize;
                    row_slice[j] -= factor * prow[j];
                }
            }
            // Force exact zero in the pivot column for stability.
            self.t[or_s + col] = 0.0;
        }
        if track_dse {
            self.dse[row] = wr_new.max(DSE_MIN);
        }
        self.scratch_row = prow;
        self.scratch_nz = pnz;
        self.basis[row] = col;
        Ok(())
    }

    /// Adds `sign · range(col) · column(col)` to the right-hand-side column
    /// (all rows including the cost row). `sign = -1` folds a column that
    /// just moved to its upper bound; `sign = +1` unfolds it.
    fn fold_rhs(&mut self, col: usize, sign: f64) {
        let u = self.range[col];
        if !u.is_finite() || u <= 0.0 {
            return;
        }
        self.fold_rhs_scaled(col, sign * u);
    }

    /// Adds `delta · column(col)` to the right-hand-side column (all rows
    /// including the cost row) — the rank-1 update behind both the at-upper
    /// folds and the in-place bound tightenings of [`DiveTableau`].
    fn fold_rhs_scaled(&mut self, col: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let w = self.ncols + 1;
        for r in 0..=self.m {
            let a = self.t[r * w + col];
            if a != 0.0 {
                self.t[r * w + self.ncols] += delta * a;
            }
        }
    }

    /// Moves nonbasic `col` to its opposite bound without a basis change.
    fn flip(&mut self, col: usize, from_upper: bool) {
        self.flips += 1;
        if from_upper {
            self.fold_rhs(col, 1.0);
            self.status[col] = ColStatus::Lower;
        } else {
            self.fold_rhs(col, -1.0);
            self.status[col] = ColStatus::Upper;
        }
    }

    /// Basis change with status/fold bookkeeping: `col` enters (from its
    /// upper bound when `from_upper`), the basic variable of `row` leaves
    /// (to its upper bound when `leave_at_upper`).
    fn pivot_bounded(
        &mut self,
        row: usize,
        col: usize,
        from_upper: bool,
        leave_at_upper: bool,
    ) -> Result<(), Abort> {
        if from_upper {
            // Unfold the entering column: the elimination algebra assumes
            // it sits at its lower bound.
            self.fold_rhs(col, 1.0);
        }
        let old = self.basis[row];
        self.pivot(row, col)?;
        self.status[col] = ColStatus::Basic;
        if old != usize::MAX {
            if leave_at_upper {
                self.fold_rhs(old, -1.0);
                self.status[old] = ColStatus::Upper;
            } else {
                self.status[old] = ColStatus::Lower;
            }
        }
        Ok(())
    }

    /// Runs the bounded-variable primal simplex loop on the current cost
    /// row (minimization). Returns `false` if unbounded.
    ///
    /// Anti-cycling: Dantzig pricing with a largest-pivot ratio tie-break
    /// normally; after an iteration budget proportional to the tableau
    /// size, a permanent switch to Bland entering + smallest-basic-index
    /// leaving. (PR 2's lexicographic leaving rule is gone on purpose: its
    /// strictly-decreasing-lex-order argument assumes every degenerate
    /// pivot leaves at the lower bound, which bound flips and
    /// leave-at-upper pivots break; classic Bland is the rule with a
    /// finiteness proof for the bounded-variable simplex, and bound flips
    /// themselves move the objective strictly so they cannot cycle.) A
    /// hard cap backstops the floating-point tie windows either way,
    /// failing soft via [`Abort::Stall`] rather than looping forever.
    fn optimize(&mut self) -> Result<bool, Abort> {
        let iter_budget = 50 * (self.m + self.ncols) + 1000;
        let hard_cap = 4 * iter_budget;
        let mut iters = 0usize;
        loop {
            iters += 1;
            if iters > hard_cap {
                return Err(Abort::Stall);
            }
            if self.cancelled_at(iters) {
                return Err(Abort::Cancelled);
            }
            let bland = iters > iter_budget;
            // Entering column: at-lower columns improve with rc < -EPS,
            // at-upper columns with rc > EPS (they can only decrease).
            let mut enter: Option<(usize, bool)> = None;
            let mut best = EPS;
            for j in 0..self.ncols {
                if !self.movable(j) {
                    continue;
                }
                let rc = self.at(self.m, j);
                let from_upper = self.status[j] == ColStatus::Upper;
                let viol = if from_upper { rc } else { -rc };
                if bland {
                    if viol > EPS {
                        enter = Some((j, from_upper));
                        break;
                    }
                } else if viol > best {
                    best = viol;
                    enter = Some((j, from_upper));
                }
            }
            let Some((col, from_upper)) = enter else {
                return Ok(true); // optimal
            };
            match self.ratio_test(col, from_upper, bland) {
                RatioOutcome::Unbounded => return Ok(false),
                RatioOutcome::Flip => self.flip(col, from_upper),
                RatioOutcome::Pivot(row, leave_at_upper) => {
                    self.pivot_bounded(row, col, from_upper, leave_at_upper)?;
                }
            }
        }
    }

    /// Bounded-variable ratio test for `col` entering (moving off its
    /// lower, or when `from_upper` its upper, bound). Considers basic
    /// variables hitting either of their bounds plus the entering column's
    /// own bound flip.
    fn ratio_test(&self, col: usize, from_upper: bool, bland: bool) -> RatioOutcome {
        // The rhs is clamped at zero / range: accumulated drift can leave a
        // basic value at -1e-13, and a negative step would walk the iterate
        // out of the feasible region.
        let mut t_best = self.range[col]; // own bound flip (may be ∞)
        let mut leave: Option<(usize, bool)> = None;
        for r in 0..self.m {
            let a = self.at(r, col);
            if a.abs() <= 1e-9 {
                continue;
            }
            // Basic value rate per unit step of the entering variable.
            let rate = if from_upper { a } else { -a };
            let (t, at_upper) = if rate < 0.0 {
                (self.rhs(r).max(0.0) / -rate, false)
            } else {
                let u = self.basic_range(r);
                if u.is_infinite() {
                    continue;
                }
                ((u - self.rhs(r)).max(0.0) / rate, true)
            };
            let replace = if t < t_best - 1e-12 {
                true
            } else if t > t_best + 1e-12 {
                false
            } else {
                match leave {
                    // Tie with the bound flip: flipping is a rank-1 rhs
                    // update, strictly cheaper — keep it.
                    None => false,
                    Some((lr, _)) => {
                        if bland {
                            self.basis[r] < self.basis[lr]
                        } else {
                            // On ties take the larger pivot element for
                            // numerical stability.
                            a.abs() > self.at(lr, col).abs()
                        }
                    }
                }
            };
            if replace {
                t_best = t;
                leave = Some((r, at_upper));
            }
        }
        match leave {
            None if t_best.is_infinite() => RatioOutcome::Unbounded,
            None => RatioOutcome::Flip,
            Some((row, at_upper)) => RatioOutcome::Pivot(row, at_upper),
        }
    }

    /// Computes the dual steepest-edge reference weights from scratch —
    /// one full tableau scan, about the cost of a single pivot. Called
    /// through [`Tableau::ensure_dse`]: lazily by the first dual repair,
    /// or up front by [`DiveTableau::prime_dse`] so that clones
    /// inherit the weights instead of each repeating the scan. Afterwards
    /// [`Tableau::pivot`] keeps the weights exact, so the scan never
    /// repeats for the lifetime of the tableau (dive chains included).
    /// When it runs does not matter: between the cold solve and the first
    /// dual loop only rhs folds happen, and the weights exclude the rhs.
    fn init_dse(&mut self) {
        let w = self.ncols + 1;
        self.dse = (0..self.m)
            .map(|r| {
                let s: f64 = self.t[r * w..r * w + self.ncols]
                    .iter()
                    .map(|x| x * x)
                    .sum();
                s.max(DSE_MIN)
            })
            .collect();
    }

    /// Initializes the dual steepest-edge weights unless they are already
    /// live.
    fn ensure_dse(&mut self) {
        if self.dse.is_empty() {
            self.init_dse();
        }
    }

    /// Dual simplex repair: restores primal feasibility (with respect to
    /// both bounds of the basic variables) while keeping the cost row dual
    /// feasible, within `iter_budget` pivots — strong-branching probes cap
    /// their repair effort and treat a capped-out repair as
    /// [`DualStatus::Stalled`] (no estimate). Precondition: every movable
    /// at-lower column has reduced cost `≥ -EPS` and every movable
    /// at-upper column `≤ EPS`.
    ///
    /// Leaving rows are priced by dual steepest edge: the largest
    /// `violation² / w_r`, the violation measured in the geometry of the
    /// row (`w_r = ‖row_r‖²` of `B⁻¹A`), so a huge violation on a
    /// badly-scaled row does not win over a genuinely deep one — on the
    /// degenerate big-M relaxations this picks pivots that make real
    /// progress. The weights start exact and every pivot keeps them exact
    /// with the textbook recurrence fused into the elimination loop.
    fn dual_optimize(&mut self, iter_budget: usize) -> Result<DualStatus, Abort> {
        self.ensure_dse();
        for it in 1..=iter_budget {
            if self.cancelled_at(it) {
                return Err(Abort::Cancelled);
            }
            // Ties break towards the smaller row index (strict `>`),
            // deterministically.
            let mut row: Option<(usize, bool)> = None;
            let mut best = 0.0f64;
            for r in 0..self.m {
                let b = self.rhs(r);
                let u = self.basic_range(r);
                let (viol, above) = if -b > 1e-9 {
                    (-b, false)
                } else if u.is_finite() && b - u > 1e-9 {
                    (b - u, true)
                } else {
                    continue;
                };
                let score = viol * viol / self.dse[r];
                if score > best {
                    best = score;
                    row = Some((r, above));
                }
            }
            let Some((row, above)) = row else {
                return Ok(DualStatus::Feasible);
            };
            // Entering column: dual ratio test. Eligibility depends on the
            // violated side and the column's bound status — the pivot must
            // move the basic value towards the violated bound while keeping
            // every reduced cost on its feasible side.
            let mut col: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_a = 0.0f64;
            for j in 0..self.ncols {
                if !self.movable(j) {
                    continue;
                }
                let a = self.at(row, j);
                let at_upper = self.status[j] == ColStatus::Upper;
                let eligible = match (at_upper, above) {
                    (false, false) => a < -1e-9,
                    (false, true) => a > 1e-9,
                    (true, false) => a > 1e-9,
                    (true, true) => a < -1e-9,
                };
                if !eligible {
                    continue;
                }
                let rc = self.at(self.m, j);
                let num = if at_upper {
                    (-rc).max(0.0)
                } else {
                    rc.max(0.0)
                };
                let ratio = num / a.abs();
                if ratio < best_ratio - 1e-12 || (ratio < best_ratio + 1e-12 && a.abs() > best_a) {
                    best_ratio = ratio;
                    best_a = a.abs();
                    col = Some(j);
                }
            }
            let Some(col) = col else {
                // Every movable column already sits at the bound that pulls
                // the violated basic value as far as it can go: no solution
                // satisfies the bounds — infeasible.
                return Ok(DualStatus::Infeasible);
            };
            let from_upper = self.status[col] == ColStatus::Upper;
            self.pivot_bounded(row, col, from_upper, above)?;
            self.dse_pivots += 1;
        }
        Ok(DualStatus::Stalled)
    }

    /// Reduces the cost row against the current basis.
    fn reduce_cost_row(&mut self) {
        for r in 0..self.m {
            let b = self.basis[r];
            let coef = self.at(self.m, b);
            if coef.abs() > 1e-12 {
                for j in 0..=self.ncols {
                    let v = self.at(self.m, j) - coef * self.at(r, j);
                    self.set(self.m, j, v);
                }
                self.set(self.m, b, 0.0);
            }
        }
    }

    /// Primal feasibility of the current basic values against both bounds.
    fn primal_feasible(&self) -> bool {
        (0..self.m).all(|r| {
            let b = self.rhs(r);
            let u = self.basic_range(r);
            b >= -1e-9 && (u.is_infinite() || b <= u + 1e-9)
        })
    }
}

/// Result of the bounded ratio test.
enum RatioOutcome {
    Unbounded,
    /// The entering column's own bound is the binding limit.
    Flip,
    /// `(leaving row, leaves at upper bound)`.
    Pivot(usize, bool),
}

/// One standard-form constraint row over shifted structural variables.
struct Row {
    coeffs: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// The standard form shared by the bounded-variable and reference solve
/// paths.
pub(crate) struct StdForm {
    n: usize,
    m: usize,
    lo: Vec<f64>,
    /// Shifted upper bound per structural + slack column (`∞` where
    /// unbounded; all-`∞` in the explicit-bound-row reference form).
    range: Vec<f64>,
    rows: Vec<Row>,
    n_slack: usize,
    slack_of_row: Vec<Option<(usize, f64)>>,
    row_sign: Vec<f64>,
    needs_artificial: Vec<bool>,
    n_art: usize,
}

/// Builds the standard form. With `explicit_bounds` (the test-only
/// reference formulation) every finite upper bound becomes a dense
/// `x ≤ range` row with its own slack and all column ranges are `∞`;
/// otherwise bounds stay implicit in the column ranges and the row set is
/// exactly the model's structural constraints.
pub(crate) fn std_form(model: &Model, explicit_bounds: bool) -> StdForm {
    let n = model.num_vars();

    // Shifted variables: x = lo + x', x' in [0, hi - lo].
    let lo: Vec<f64> = (0..n)
        .map(|i| model.bounds(crate::VarId(i as u32)).0)
        .collect();
    let hi: Vec<f64> = (0..n)
        .map(|i| model.bounds(crate::VarId(i as u32)).1)
        .collect();

    let mut rows: Vec<Row> = Vec::with_capacity(model.num_constraints());
    for c in &model.constraints {
        let mut rhs = c.rhs;
        let mut coeffs = Vec::with_capacity(c.expr.terms.len());
        for &(v, coef) in &c.expr.terms {
            rhs -= coef * lo[v.index()];
            coeffs.push((v.index(), coef));
        }
        rows.push(Row {
            coeffs,
            cmp: c.cmp,
            rhs,
        });
    }
    if explicit_bounds {
        for i in 0..n {
            if hi[i].is_finite() {
                rows.push(Row {
                    coeffs: vec![(i, 1.0)],
                    cmp: Cmp::Le,
                    rhs: hi[i] - lo[i],
                });
            }
        }
    }

    let m = rows.len();
    // Column layout: [0, n) structural; then one slack/surplus per Le/Ge
    // row; then artificials as needed.
    let mut slack_of_row: Vec<Option<(usize, f64)>> = Vec::with_capacity(m);
    let mut next = n;
    for r in &rows {
        match r.cmp {
            Cmp::Le => {
                slack_of_row.push(Some((next, 1.0)));
                next += 1;
            }
            Cmp::Ge => {
                slack_of_row.push(Some((next, -1.0)));
                next += 1;
            }
            Cmp::Eq => slack_of_row.push(None),
        }
    }
    let n_slack = next - n;

    // Column ranges: structural bounds (implicit form only); slacks are
    // one-sided.
    let mut range: Vec<f64> = Vec::with_capacity(n + n_slack);
    for i in 0..n {
        range.push(if explicit_bounds {
            f64::INFINITY
        } else {
            hi[i] - lo[i]
        });
    }
    range.resize(n + n_slack, f64::INFINITY);

    // Negate rows with negative rhs (flips slack signs too); rows that do
    // not end up with a ready +1 basic column need an artificial.
    let mut needs_artificial: Vec<bool> = vec![false; m];
    let mut row_sign: Vec<f64> = vec![1.0; m];
    for (i, r) in rows.iter().enumerate() {
        let s = if r.rhs < 0.0 { -1.0 } else { 1.0 };
        row_sign[i] = s;
        let slack_coef = slack_of_row[i].map(|(_, c)| c * s);
        needs_artificial[i] = slack_coef != Some(1.0);
    }
    let n_art = needs_artificial.iter().filter(|&&b| b).count();

    StdForm {
        n,
        m,
        lo,
        range,
        rows,
        n_slack,
        slack_of_row,
        row_sign,
        needs_artificial,
        n_art,
    }
}

/// Tableau dimensions `(rows, structural + slack columns)` of the
/// bounded-variable standard form — the rows are exactly the model's
/// structural constraints (zero bound rows). The explicit-bound-row
/// reference shape is [`crate::reference::tableau_shape`].
pub fn tableau_shape(model: &Model) -> (usize, usize) {
    std_form_shape(model, false)
}

/// Shared shape helper for the bounded and reference standard forms,
/// computed directly from the model (one row + slack per Le/Ge constraint;
/// the explicit form adds a Le row + slack per finite upper bound) without
/// materializing a `StdForm`.
pub(crate) fn std_form_shape(model: &Model, explicit_bounds: bool) -> (usize, usize) {
    let n = model.num_vars();
    let m = model.num_constraints();
    let slacks = model
        .constraints
        .iter()
        .filter(|c| !matches!(c.cmp, Cmp::Eq))
        .count();
    let finite_uppers = if explicit_bounds {
        (0..n)
            .filter(|&i| model.bounds(crate::VarId(i as u32)).1.is_finite())
            .count()
    } else {
        0
    };
    (m + finite_uppers, n + slacks + finite_uppers)
}

/// Fills the structural, slack, and rhs entries of a tableau whose column
/// count is at least `n + n_slack`.
fn fill_core(tab: &mut Tableau, sf: &StdForm) {
    let w = tab.ncols + 1;
    for (i, r) in sf.rows.iter().enumerate() {
        let s = sf.row_sign[i];
        for &(j, c) in &r.coeffs {
            tab.t[i * w + j] += c * s;
        }
        if let Some((sj, sc)) = sf.slack_of_row[i] {
            tab.t[i * w + sj] = sc * s;
        }
        tab.t[i * w + tab.ncols] = r.rhs * s;
    }
}

/// Installs the phase-2 cost row (minimization of the model objective over
/// the shifted structural variables).
fn set_phase2_cost(tab: &mut Tableau, model: &Model) {
    let minimize_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let m = tab.m;
    for j in 0..=tab.ncols {
        tab.set(m, j, 0.0);
    }
    for &(v, c) in &model.objective.terms {
        let j = v.index();
        let cur = tab.at(m, j);
        tab.set(m, j, cur + minimize_sign * c);
    }
}

/// Extracts the structural solution from an optimal tableau whose
/// structural columns are shifted by the lower bounds `lo`: basic columns
/// read their row's right-hand side, at-upper columns their range, at-lower
/// columns zero.
fn extract(tab: &Tableau, lo: &[f64], model: &Model) -> Solution {
    let mut shifted = vec![0.0f64; tab.ncols];
    for (j, &s) in tab.status.iter().enumerate() {
        if s == ColStatus::Upper {
            shifted[j] = tab.range[j];
        }
    }
    for r in 0..tab.m {
        let b = tab.basis[r];
        if b < tab.ncols {
            shifted[b] = tab.rhs(r);
        }
    }
    let values: Vec<f64> = lo.iter().zip(&shifted).map(|(l, x)| l + x).collect();
    let objective = model.objective.eval(&values);
    Solution { values, objective }
}

/// Solves the LP relaxation of `model` (integrality is ignored).
pub fn solve_relaxation(model: &Model) -> LpOutcome {
    cold_solve(model, &std_form(model, false)).0
}

/// The cold two-phase path, shared by the bounded-variable and
/// explicit-bound-row (reference) standard forms.
pub(crate) fn cold_solve(model: &Model, sf: &StdForm) -> (LpOutcome, LpStats) {
    let (outcome, stats, _) = cold_solve_tab(model, sf, None);
    (outcome, stats)
}

/// [`cold_solve`] variant that also hands back the final tableau on an
/// optimal solve, so [`DiveTableau`] can keep it live across a chain of
/// bound tightenings instead of rebuilding it per step. A `cancel` token,
/// when given, rides on the tableau: both solve phases — and every later
/// dual repair on the live tableau — poll it and abort as
/// [`LpOutcome::Cancelled`] once it trips.
fn cold_solve_tab(
    model: &Model,
    sf: &StdForm,
    cancel: Option<&crate::cancel::Cancel>,
) -> (LpOutcome, LpStats, Option<Tableau>) {
    let core = sf.n + sf.n_slack;
    let ncols = core + sf.n_art;
    let mut range = sf.range.clone();
    range.resize(ncols, f64::INFINITY);
    let mut tab = Tableau::new(sf.m, ncols, range);
    tab.cancel = cancel.cloned();
    fill_core(&mut tab, sf);
    {
        let w = ncols + 1;
        let mut art_next = core;
        for i in 0..sf.m {
            if sf.needs_artificial[i] {
                tab.t[i * w + art_next] = 1.0;
                tab.basis[i] = art_next;
                art_next += 1;
            } else {
                tab.basis[i] = sf.slack_of_row[i]
                    .expect("row without slack needs artificial")
                    .0;
            }
            tab.status[tab.basis[i]] = ColStatus::Basic;
        }
    }
    let stats_of = |tab: &Tableau| LpStats {
        pivots: tab.pivots,
        bound_flips: tab.flips,
    };

    // Phase 1: minimize the artificial sum. Cost row: 1 on artificials,
    // reduce against the artificial basis rows.
    if sf.n_art > 0 {
        let m = sf.m;
        for j in 0..ncols {
            tab.set(m, j, if j >= core { 1.0 } else { 0.0 });
        }
        tab.set(m, ncols, 0.0);
        for r in 0..m {
            if tab.basis[r] >= core {
                // subtract row r from cost row
                for j in 0..=ncols {
                    let v = tab.at(m, j) - tab.at(r, j);
                    tab.set(m, j, v);
                }
            }
        }
        match tab.optimize() {
            // Phase 1 minimizes a sum of nonnegative artificials, so an
            // "unbounded" verdict can only mean numerical breakdown.
            // Surface it instead of running phase 2 on a corrupt tableau.
            Ok(true) => {}
            Ok(false) => return (LpOutcome::PivotTooSmall, stats_of(&tab), None),
            Err(a) => return (a.outcome(), stats_of(&tab), None),
        }
        let art_sum = -tab.rhs(m);
        if art_sum > 1e-6 {
            return (LpOutcome::Infeasible, stats_of(&tab), None);
        }
        // Drive remaining (degenerate) artificials out of the basis.
        for r in 0..sf.m {
            if tab.basis[r] >= core {
                let mut pivot_col = None;
                for j in 0..core {
                    if tab.status[j] != ColStatus::Basic && tab.at(r, j).abs() > 1e-9 {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(j) = pivot_col {
                    let from_upper = tab.status[j] == ColStatus::Upper;
                    if tab.pivot_bounded(r, j, from_upper, false).is_err() {
                        return (LpOutcome::PivotTooSmall, stats_of(&tab), None);
                    }
                }
                // else: the row is redundant; the artificial stays basic at 0
                // and its column stays disallowed, which is harmless.
            }
        }
        // Artificials may never re-enter.
        for j in core..ncols {
            tab.allowed[j] = false;
        }
    }

    set_phase2_cost(&mut tab, model);
    tab.reduce_cost_row();
    match tab.optimize() {
        Ok(true) => {
            let sol = extract(&tab, &sf.lo, model);
            let stats = stats_of(&tab);
            (LpOutcome::Optimal(sol), stats, Some(tab))
        }
        Ok(false) => (LpOutcome::Unbounded, stats_of(&tab), None),
        Err(a) => (a.outcome(), stats_of(&tab), None),
    }
}

/// Outcome of one [`DiveTableau::tighten`] step.
#[derive(Clone, Debug)]
pub enum DiveStep {
    /// The tightened relaxation is optimal.
    Optimal(Solution),
    /// The tightened bounds admit no feasible point.
    Infeasible,
    /// The dual repair exhausted its iteration budget or hit a tiny pivot;
    /// the tableau state is unreliable and the caller should discard it
    /// (heuristic callers abort, exact callers rebuild cold).
    Stalled,
    /// The attached cancel token tripped mid-repair; the tableau is
    /// unreliable, as after a stall.
    Cancelled,
}

/// An **incremental dive tableau**: the factorized tableau of an optimal
/// relaxation kept live across a chain of bound *tightenings*.
///
/// A bound tightening is applied **in place** as rank-1 right-hand-side
/// folds — no tableau rebuild, no basis reinstall — and the only simplex
/// work per step is the dual repair itself, priced by dual steepest edge.
///
/// The algebra, for a structural column `j` currently shifted by `lo_j`
/// with range `r_j = hi_j − lo_j` (rhs column = `B⁻¹b − Σ_{k at upper}
/// r_k·T_k`):
///
/// - raising `lo_j` by `d` re-shifts the column (`b ← b − d·A_j`, i.e.
///   `rhs ← rhs − d·T_j`) — unless `j` is nonbasic at upper, where the
///   shrunken fold (`r_j ← r_j − d`) cancels the re-shift exactly and the
///   rhs is untouched;
/// - lowering `hi_j` by `e` shrinks the range; only an at-upper column
///   moves (`rhs ← rhs + e·T_j`).
///
/// Reduced costs never change under bound changes and a tightening can
/// only *remove* movable columns, so the basis stays dual feasible and a
/// single dual-simplex repair restores optimality (or proves the child
/// infeasible). Only tightenings are supported — relaxing a bound could
/// re-mobilize a column whose reduced cost drifted while it was fixed —
/// so callers snapshot via [`Clone`] (one tableau memcpy, ≈ the cost of a
/// single pivot) where they may need to back out, e.g. strong-branching
/// probes and dive batch fallbacks. [`Clone::clone_from`] refills an
/// existing snapshot's buffers without allocating.
pub struct DiveTableau {
    tab: Tableau,
    /// Current lower bound per structural variable (the column shift).
    lo: Vec<f64>,
    /// Current upper bound per structural variable.
    hi: Vec<f64>,
    /// Structural variable count.
    n: usize,
}

impl Clone for DiveTableau {
    fn clone(&self) -> Self {
        DiveTableau {
            tab: self.tab.clone(),
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            n: self.n,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let DiveTableau { tab, lo, hi, n } = src;
        self.tab.clone_from(tab);
        self.lo.clone_from(lo);
        self.hi.clone_from(hi);
        self.n = *n;
    }
}

impl DiveTableau {
    /// Cold-solves the relaxation of `model` (two-phase bounded-variable
    /// simplex — identical work to [`solve_relaxation`]) and keeps the
    /// optimal tableau live. The tableau is `Some` exactly when the
    /// outcome is [`LpOutcome::Optimal`].
    ///
    /// An optional cancellation token stays attached to the live tableau:
    /// the cold solve and every later [`DiveTableau::tighten`] repair
    /// abort as [`LpOutcome::Cancelled`] / [`DiveStep::Cancelled`] once
    /// it trips. The steepest-edge weights of the dual repairs are
    /// initialized once and maintained exactly across the whole chain.
    pub fn new(
        model: &Model,
        cancel: Option<&crate::cancel::Cancel>,
    ) -> (LpOutcome, Option<DiveTableau>, LpStats) {
        let sf = std_form(model, false);
        let (outcome, stats, tab) = cold_solve_tab(model, &sf, cancel);
        let dt = tab.map(|tab| {
            let n = sf.n;
            let hi = (0..n)
                .map(|i| model.bounds(crate::VarId(i as u32)).1)
                .collect();
            DiveTableau {
                tab,
                lo: sf.lo.clone(),
                hi,
                n,
            }
        });
        (outcome, dt, stats)
    }

    /// Current bounds of a structural variable.
    pub fn bounds(&self, v: crate::VarId) -> (f64, f64) {
        (self.lo[v.index()], self.hi[v.index()])
    }

    /// Cumulative `(pivots, bound_flips, dse_pivots)` performed on this
    /// tableau, including the initial cold solve (clones inherit the
    /// counters of their source; callers charge deltas).
    pub fn work(&self) -> (usize, usize, usize) {
        (self.tab.pivots, self.tab.flips, self.tab.dse_pivots)
    }

    /// Computes the dual steepest-edge weights now rather than at the
    /// first dual repair, so every clone taken afterwards inherits them
    /// instead of repeating the scan. The results are bit-identical to the
    /// lazy path: tightenings fold only the rhs column, which the weights
    /// exclude. A no-op once the weights are live.
    pub(crate) fn prime_dse(&mut self) {
        self.tab.ensure_dse();
    }

    /// Whether `model` has this tableau's row count and bit-identical
    /// variable bounds. On a tableau no tightening has touched, that is
    /// the check for reusing it in place of a cold solve of `model`; the
    /// row *contents* are the caller's guarantee.
    pub(crate) fn fits(&self, model: &Model) -> bool {
        self.tab.m == model.num_constraints()
            && self.n == model.num_vars()
            && (0..self.n).all(|i| {
                let (lo, hi) = model.bounds(crate::VarId(i as u32));
                lo.to_bits() == self.lo[i].to_bits() && hi.to_bits() == self.hi[i].to_bits()
            })
    }

    /// Gomory mixed-integer cuts read off the current optimal tableau.
    ///
    /// For each basic **structural** column whose variable is integral but
    /// whose value is fractional, the fully eliminated tableau row
    /// `x'_B + Σ ā_j x'_j = b̄` is rewritten over the nonbasic columns'
    /// distances-from-active-bound `t_j ≥ 0` (at-lower: `t = x − lo`;
    /// at-upper: `t = hi − x`; slacks are always at-lower and substitute
    /// back through their defining row), and the standard GMI coefficients
    /// are applied: with `f₀ = frac(b̄)`, an integer-valued `t_j` with
    /// `f_j = frac(g_j)` contributes `min(f_j, f₀(1−f_j)/(1−f₀))`, a
    /// continuous one `g_j` or `f₀(−g_j)/(1−f₀)`. Artificial columns are
    /// identically zero on feasible points and are skipped.
    ///
    /// Every bound consulted is the tableau's **current** box, so the
    /// returned cuts are valid for all integer-feasible points inside it —
    /// on a freshly built tableau (no [`DiveTableau::tighten`] applied)
    /// that box is the model's global box and the cuts are globally valid.
    /// `model` must be the model this tableau was built from (the slack →
    /// row mapping is reconstructed from its constraint list).
    ///
    /// Returns at most `max_cuts` Le-form x-space cuts `(terms, rhs)`,
    /// most-violated tableau rows first; term order, candidate order, and
    /// all arithmetic are deterministic.
    pub(crate) fn gomory_cuts(
        &self,
        model: &Model,
        integral: &[bool],
        max_cuts: usize,
        max_terms: usize,
    ) -> Vec<(Vec<(crate::VarId, f64)>, f64)> {
        const INT_TOL: f64 = 1e-9;
        const COEF_EPS: f64 = 1e-11;
        const DROP_EPS: f64 = 1e-9;
        const MIN_FRAC: f64 = 0.01;
        const MIN_EFFICACY: f64 = 0.01;
        const SNAP_EPS: f64 = 1e-6;
        const MAX_DYNAMISM: f64 = 100.0;
        const GRID: f64 = 1e9;
        let frac_of = |v: f64| v - v.floor();
        let is_int = |v: f64| {
            let f = frac_of(v);
            f <= INT_TOL || f >= 1.0 - INT_TOL
        };

        let tab = &self.tab;
        let n = self.n;
        // Slack column layout mirrors `std_form`: one column per Le/Ge row
        // in row order, starting at `n`; everything past them is
        // artificial. A slack is integer-valued iff its whole defining row
        // is (integral variables, integer coefficients and rhs).
        let mut slack_row: Vec<usize> = Vec::new();
        let mut slack_sign: Vec<f64> = Vec::new();
        let mut slack_int: Vec<bool> = Vec::new();
        for (i, c) in model.constraints.iter().enumerate() {
            let sc = match c.cmp {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => continue,
            };
            slack_row.push(i);
            slack_sign.push(sc);
            slack_int.push(
                is_int(c.rhs)
                    && c.expr
                        .terms
                        .iter()
                        .all(|&(v, a)| integral[v.index()] && is_int(a)),
            );
        }
        let core = n + slack_row.len();

        // Candidate rows: basic structural integral variable at a usefully
        // fractional value (the cut's violation at the current vertex is
        // exactly `f₀`). Most-violated first, row index breaking ties, so
        // the strongest rounding cuts come out under `max_cuts`.
        let mut cand: Vec<(f64, usize)> = (0..tab.m)
            .filter_map(|r| {
                let b = tab.basis[r];
                if b >= n || !integral[b] || !is_int(self.lo[b]) {
                    return None;
                }
                let f0 = frac_of(tab.rhs(r));
                // `f₀` is the cut's violation, so small `f₀` means a weak
                // cut — but *large* `f₀` is a strong one, only rejected in
                // the last 1e-4 where `b̄` is integral up to tolerance and
                // the "cut" would be slicing off rounding noise.
                (MIN_FRAC..=1.0 - 1e-4).contains(&f0).then_some((f0, r))
            })
            .collect();
        cand.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut out = Vec::new();
        'rows: for &(_, r) in &cand {
            if out.len() >= max_cuts {
                break;
            }
            let f0 = frac_of(tab.rhs(r));
            let ratio = f0 / (1.0 - f0);
            // x-space accumulation of `Σ φ_j t_j ≥ f₀`: coefficient per
            // variable plus the folded constant, deterministic order.
            let mut w: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
            let mut consts = 0.0f64;
            for j in 0..tab.ncols {
                if j >= core || tab.status[j] == ColStatus::Basic {
                    continue;
                }
                let a = tab.at(r, j);
                if a.abs() <= COEF_EPS {
                    continue;
                }
                let at_upper = tab.status[j] == ColStatus::Upper;
                let g = if at_upper { -a } else { a };
                let t_integer = if j < n {
                    integral[j] && is_int(if at_upper { self.hi[j] } else { self.lo[j] })
                } else {
                    slack_int[j - n]
                };
                let phi = if t_integer {
                    let fj = frac_of(g);
                    if fj <= f0 + INT_TOL {
                        fj
                    } else {
                        ratio * (1.0 - fj)
                    }
                } else if g > 0.0 {
                    g
                } else {
                    ratio * -g
                };
                if phi <= COEF_EPS {
                    continue;
                }
                if j < n {
                    if at_upper {
                        // φ·t = φ·hi − φ·x.
                        *w.entry(j as u32).or_default() -= phi;
                        consts += phi * self.hi[j];
                    } else {
                        // φ·t = φ·x − φ·lo.
                        *w.entry(j as u32).or_default() += phi;
                        consts -= phi * self.lo[j];
                    }
                } else {
                    // φ·u = φ·sc·(rhs_i − a_i·x).
                    let i = slack_row[j - n];
                    let sc = slack_sign[j - n];
                    let c = &model.constraints[i];
                    consts += phi * sc * c.rhs;
                    for &(v, aik) in &c.expr.terms {
                        *w.entry(v.index() as u32).or_default() -= phi * sc * aik;
                    }
                }
            }
            // `Σ w·x ≥ f₀ − consts`, negated to the pool's Le form, then
            // canonicalized: tableau arithmetic leaves 1e-13-jittered
            // copies of what are mathematically small-integer coefficients,
            // and those jitters both evade the pool's content-key dedup
            // (near-identical cuts pile up) and seed tiny pivots in every
            // later repair. Coefficients within `SNAP_EPS` of an integer
            // snap to it and near-zero ones drop, each time relaxing the
            // rhs by the perturbation's worst-case contribution over the
            // box — the cut only ever gets *weaker*, so validity is
            // preserved; an unbounded variable under a perturbed term
            // vetoes the cut instead.
            let mut rhs = consts - f0;
            let mut terms: Vec<(crate::VarId, f64)> = Vec::new();
            for (&j, &wj) in &w {
                let c = -wj;
                let snapped = c.round();
                let d = (c - snapped).abs();
                let c = if d <= SNAP_EPS { snapped } else { c };
                let slop = if d <= SNAP_EPS && d > 0.0 {
                    let ji = j as usize;
                    let bnd = self.lo[ji].abs().max(self.hi[ji].abs());
                    if !bnd.is_finite() {
                        continue 'rows;
                    }
                    d * bnd
                } else {
                    0.0
                };
                rhs += slop;
                if c.abs() > DROP_EPS {
                    terms.push((crate::VarId(j), c));
                }
            }
            // Raising the rhs to a nearby integer is a further weakening.
            if (rhs.round() - rhs) >= 0.0 && (rhs.round() - rhs) <= SNAP_EPS {
                rhs = rhs.round();
            }
            if terms.is_empty() || terms.len() > max_terms {
                continue;
            }
            // Quality gates. Efficacy: the cut's violation at the current
            // vertex is `f₀`; normalized by the coefficient norm it is the
            // euclidean distance the cut pushes the vertex — near-parallel
            // dense rows that barely move the relaxation are rejected.
            // Dynamism: rows mixing huge and tiny coefficients make every
            // later LP numerically fragile (tiny pivots, stalled repairs),
            // costing far more than their bound contribution is worth.
            let norm = terms.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
            if f0 / norm < MIN_EFFICACY {
                continue;
            }
            let maxc = terms.iter().map(|&(_, c)| c.abs()).fold(0.0, f64::max);
            let minc = terms
                .iter()
                .map(|&(_, c)| c.abs())
                .fold(f64::INFINITY, f64::min);
            if maxc / minc > MAX_DYNAMISM {
                continue;
            }
            // Canonical scale: normalize so the largest |coefficient| is 1
            // and round everything onto a fixed grid (rhs always rounded
            // *up*, coefficient perturbations again paid for through the
            // rhs). Cuts that are mathematically equal but were read off
            // different tableau rows with different last-bit noise now
            // serialize identically — the pool's content-key dedup works.
            let scale = 1.0 / maxc;
            let mut slop = 0.0f64;
            for (v, c) in &mut terms {
                let s = *c * scale;
                let g = (s * GRID).round() / GRID;
                let d = (s - g).abs();
                if d > 0.0 {
                    let ji = v.index();
                    let bnd = self.lo[ji].abs().max(self.hi[ji].abs());
                    if !bnd.is_finite() {
                        continue 'rows;
                    }
                    slop += d * bnd;
                }
                *c = g;
            }
            let rhs = ((rhs * scale + slop) * GRID).ceil() / GRID;
            out.push((terms, rhs));
        }
        out
    }

    /// Applies a batch of bound tightenings in place and re-optimizes with
    /// dual simplex. Bounds outside the current box are clamped inward
    /// (this entry point can only tighten); an empty domain reports
    /// [`DiveStep::Infeasible`] without touching the tableau further.
    ///
    /// `model` is only consulted for the objective evaluation of the
    /// extracted solution.
    pub fn tighten(&mut self, changes: &[(crate::VarId, f64, f64)], model: &Model) -> DiveStep {
        self.tighten_capped(changes, model, usize::MAX)
    }

    /// [`DiveTableau::tighten`] with a cap on the dual-repair pivots —
    /// strong-branching probes bound their per-probe effort this way and
    /// accept [`DiveStep::Stalled`] (no estimate) past the cap.
    pub fn tighten_capped(
        &mut self,
        changes: &[(crate::VarId, f64, f64)],
        model: &Model,
        max_repair_pivots: usize,
    ) -> DiveStep {
        for &(v, new_lo, new_hi) in changes {
            let j = v.index();
            #[expect(
                clippy::disallowed_macros,
                reason = "an out-of-range index panics on the slice reads two lines down in release too"
            )]
            {
                debug_assert!(j < self.n, "tighten targets a structural variable");
            }
            let cur_lo = self.lo[j];
            let cur_hi = self.hi[j];
            let new_lo = new_lo.max(cur_lo);
            let new_hi = new_hi.min(cur_hi);
            if new_lo > new_hi {
                return DiveStep::Infeasible;
            }
            if !new_lo.is_finite() {
                // A non-finite lower bound would poison every later rank-1
                // RHS update; refuse the step rather than corrupt the dive.
                return DiveStep::Stalled;
            }
            let d = new_lo - cur_lo;
            let at_upper = self.tab.status[j] == ColStatus::Upper;
            if d > 0.0 && !at_upper {
                // Re-shift: the column's zero point moves up by `d`.
                self.tab.fold_rhs_scaled(j, -d);
            }
            if cur_hi.is_finite() {
                let e = cur_hi - new_hi;
                if e > 0.0 && at_upper {
                    // The at-upper value slides down with its bound.
                    self.tab.fold_rhs_scaled(j, e);
                }
            }
            self.lo[j] = new_lo;
            self.hi[j] = new_hi;
            self.tab.range[j] = new_hi - new_lo;
        }
        if !self.tab.primal_feasible() {
            let budget = (50 * (self.tab.m + self.tab.ncols) + 1000).min(max_repair_pivots);
            match self.tab.dual_optimize(budget) {
                Ok(DualStatus::Feasible) => {}
                Ok(DualStatus::Infeasible) => return DiveStep::Infeasible,
                Ok(DualStatus::Stalled) | Err(Abort::Stall) => return DiveStep::Stalled,
                Err(Abort::Cancelled) => return DiveStep::Cancelled,
            }
        }
        DiveStep::Optimal(extract(&self.tab, &self.lo, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, Model, Sense, VarKind};

    fn optimal(m: &Model) -> Solution {
        match solve_relaxation(m) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {:?}", other),
        }
    }

    #[test]
    fn simple_max() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2; optimum at (2, 2) = 10
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 2.0);
        m.set_objective(LinExpr::from(x) * 3.0 + (2.0, y));
        let s = optimal(&m);
        assert!((s.objective - 10.0).abs() < 1e-6, "got {}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simple_max_with_variable_bounds() {
        // Same optimum but x ≤ 2 expressed as a *bound*: the tableau must
        // contain a single structural row.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.set_objective(LinExpr::from(x) * 3.0 + (2.0, y));
        assert_eq!(tableau_shape(&m), (1, 3));
        let s = optimal(&m);
        assert!((s.objective - 10.0).abs() < 1e-6, "got {}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pure_box_lp_solves_by_bound_flips() {
        // No constraints at all: the optimum is a box vertex reached purely
        // by bound flips (zero rows, zero pivots).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, -1.0, 3.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 5.0);
        m.set_objective(LinExpr::from(x) + (-2.0, y));
        assert_eq!(tableau_shape(&m), (0, 2));
        let s = optimal(&m);
        assert!((s.values[0] - 3.0).abs() < 1e-9);
        assert!(s.values[1].abs() < 1e-9);
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn simple_min_with_ge() {
        // min x + y s.t. x + 2y >= 6, 3x + y >= 6 -> (1.2, 2.4), obj 3.6
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + (2.0, y), Cmp::Ge, 6.0);
        m.add_constraint(LinExpr::from(x) * 3.0 + y, Cmp::Ge, 6.0);
        m.set_objective(LinExpr::from(x) + y);
        let s = optimal(&m);
        assert!((s.objective - 3.6).abs() < 1e-6, "got {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 -> (3, 2)
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Eq, 5.0);
        m.add_constraint(LinExpr::from(x) - y, Cmp::Eq, 1.0);
        m.set_objective(LinExpr::from(x) + y);
        let s = optimal(&m);
        assert!((s.values[0] - 3.0).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 5.0);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 3.0);
        m.set_objective(LinExpr::from(x));
        assert!(matches!(solve_relaxation(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_infeasible_against_bounds() {
        // The infeasibility comes from a *bound*, not a row: x ≤ 3 as a
        // bound with the row x ≥ 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 3.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 5.0);
        m.set_objective(LinExpr::from(x));
        assert!(matches!(solve_relaxation(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) - y, Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x));
        assert!(matches!(solve_relaxation(&m), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -3 with x in [-5, 5]
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, -5.0, 5.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, -3.0);
        m.set_objective(LinExpr::from(x));
        let s = optimal(&m);
        assert!((s.values[0] + 3.0).abs() < 1e-6, "got {}", s.values[0]);
    }

    #[test]
    fn negative_rhs_rows() {
        // x + y >= -1 is vacuous for x,y >= 0; max x + y <= 2
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, -1.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 2.0);
        m.set_objective(LinExpr::from(x) + y);
        let s = optimal(&m);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 2.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 3.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.set_objective(LinExpr::from(x) + y);
        let s = optimal(&m);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Klee-Minty-like degenerate structure; mostly a termination test.
        let mut m = Model::new(Sense::Maximize);
        let n = 6;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Continuous, 0.0, f64::INFINITY))
            .collect();
        for i in 0..n {
            let mut e = LinExpr::new();
            for (j, item) in vars.iter().enumerate().take(i) {
                e = e + (2.0f64.powi((i - j) as i32 + 1), *item);
            }
            e = e + vars[i];
            m.add_constraint(e, Cmp::Le, 5.0f64.powi(i as i32 + 1));
        }
        let mut obj = LinExpr::new();
        for (j, v) in vars.iter().enumerate() {
            obj = obj + (2.0f64.powi((n - 1 - j) as i32), *v);
        }
        m.set_objective(obj);
        let s = optimal(&m);
        assert!((s.objective - 5.0f64.powi(n as i32)).abs() / 5.0f64.powi(n as i32) < 1e-6);
    }

    #[test]
    fn solution_satisfies_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 7.5);
        let y = m.add_var("y", VarKind::Continuous, 1.0, 4.0);
        let z = m.add_var("z", VarKind::Continuous, -2.0, 2.0);
        m.add_constraint(LinExpr::from(x) + (2.0, y) + (-1.0, z), Cmp::Le, 9.0);
        m.add_constraint(LinExpr::from(y) + z, Cmp::Ge, 1.5);
        m.set_objective(LinExpr::from(x) + y + z);
        let s = optimal(&m);
        assert!(m.check_feasible(&s.values, 1e-5).is_ok());
    }

    #[test]
    fn no_bound_rows_in_standard_form() {
        // Three bounded variables, two structural rows: the bounded form
        // must have exactly 2 rows; the reference form carries the bound
        // rows (2 + 3) with their slacks.
        let m = bounded_model();
        assert_eq!(m.num_constraints(), 2);
        let (rows, cols) = tableau_shape(&m);
        assert_eq!(rows, 2);
        assert_eq!(cols, 3 + 2); // structural + one slack per Le row
        let (ref_rows, ref_cols) = crate::reference::tableau_shape(&m);
        assert_eq!(ref_rows, 5);
        assert_eq!(ref_cols, 3 + 5);
    }

    /// A model with all-finite bounds (the B&B shape): max 3x + 2y + z
    /// s.t. x + y + z <= 10, x + 2y <= 8.
    fn bounded_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 6.0);
        let z = m.add_var("z", VarKind::Continuous, 0.0, 6.0);
        m.add_constraint(LinExpr::from(x) + y + z, Cmp::Le, 10.0);
        m.add_constraint(LinExpr::from(x) + (2.0, y), Cmp::Le, 8.0);
        m.set_objective(LinExpr::from(x) * 3.0 + (2.0, y) + z);
        m
    }

    #[test]
    fn pivot_and_flip_counters_report_work() {
        let m = bounded_model();
        let (out, _, stats) = DiveTableau::new(&m, None);
        assert!(matches!(out, LpOutcome::Optimal(_)));
        assert!(stats.pivots + stats.bound_flips > 0);
    }

    // ---- incremental dive tableau ----

    fn dive_tableau(m: &Model) -> (DiveTableau, Solution) {
        let (out, dt, _) = DiveTableau::new(m, None);
        let LpOutcome::Optimal(sol) = out else {
            panic!("expected optimal, got {out:?}");
        };
        (dt.expect("optimal solve keeps the tableau"), sol)
    }

    #[test]
    fn dive_tableau_matches_cold_solve_chain() {
        // A chain of upper-bound tightenings applied in place must track
        // fresh cold solves exactly.
        let m = bounded_model();
        let (mut dt, first) = dive_tableau(&m);
        let cold_first = optimal(&m);
        assert!((first.objective - cold_first.objective).abs() < 1e-9);
        let mut child = m.clone();
        for new_hi in [5.0, 4.0, 2.0, 1.0, 0.0] {
            child.set_bounds(crate::VarId(0), 0.0, new_hi);
            let step = dt.tighten(&[(crate::VarId(0), 0.0, new_hi)], &child);
            let DiveStep::Optimal(warm) = step else {
                panic!("expected optimal at hi={new_hi}, got {step:?}");
            };
            let cold = optimal(&child);
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "hi={new_hi}: dive {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(child.check_feasible(&warm.values, 1e-6).is_ok());
            assert_eq!(dt.bounds(crate::VarId(0)), (0.0, new_hi));
        }
    }

    #[test]
    fn dive_tableau_lower_bound_raises() {
        let m = bounded_model();
        let (mut dt, _) = dive_tableau(&m);
        let mut child = m.clone();
        for new_lo in [1.0, 2.0, 3.0] {
            child.set_bounds(crate::VarId(1), new_lo, 6.0);
            let step = dt.tighten(&[(crate::VarId(1), new_lo, 6.0)], &child);
            let DiveStep::Optimal(warm) = step else {
                panic!("expected optimal at lo={new_lo}, got {step:?}");
            };
            let cold = optimal(&child);
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "lo={new_lo}: dive {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
        // y >= 5 forces x + 2y >= 10 > 8: infeasible, like the cold solve.
        child.set_bounds(crate::VarId(1), 5.0, 6.0);
        let step = dt.tighten(&[(crate::VarId(1), 5.0, 6.0)], &child);
        assert!(matches!(step, DiveStep::Infeasible), "got {step:?}");
        assert!(matches!(solve_relaxation(&child), LpOutcome::Infeasible));
    }

    #[test]
    fn dive_tableau_batch_fix_detects_infeasible() {
        // x + y >= 8 with both fixed small: the batch tighten must report
        // infeasible exactly like a cold solve of the fixed model.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 8.0);
        m.set_objective(LinExpr::from(x) + y);
        let (mut dt, _) = dive_tableau(&m);
        let step = dt.tighten(&[(x, 0.0, 3.0), (y, 0.0, 3.0)], &m);
        assert!(matches!(step, DiveStep::Infeasible), "got {step:?}");
    }

    #[test]
    fn dive_tableau_clone_isolates_probes() {
        // Strong-branching probes clone the tableau; the original must be
        // unaffected by a probe's tightenings.
        let m = bounded_model();
        let (dt, base) = dive_tableau(&m);
        let mut probe = dt.clone();
        let mut child = m.clone();
        child.set_bounds(crate::VarId(0), 0.0, 1.0);
        let DiveStep::Optimal(probed) = probe.tighten(&[(crate::VarId(0), 0.0, 1.0)], &child)
        else {
            panic!("probe must stay optimal");
        };
        assert!(probed.objective < base.objective - 1e-6);
        // the original still reports the unrestricted optimum
        let mut dt2 = dt.clone();
        let DiveStep::Optimal(still) = dt2.tighten(&[], &m) else {
            panic!("no-op tighten stays optimal");
        };
        assert!((still.objective - base.objective).abs() < 1e-9);
        assert_eq!(dt.bounds(crate::VarId(0)), (0.0, 6.0));
    }

    #[test]
    fn dive_tableau_only_tightens() {
        // Bounds wider than the current box are clamped inward: the dive
        // tableau refuses to relax (callers snapshot via Clone instead).
        let m = bounded_model();
        let (mut dt, base) = dive_tableau(&m);
        let step = dt.tighten(&[(crate::VarId(0), -5.0, 50.0)], &m);
        let DiveStep::Optimal(s) = step else {
            panic!("clamped no-op must stay optimal");
        };
        assert!((s.objective - base.objective).abs() < 1e-9);
        assert_eq!(dt.bounds(crate::VarId(0)), (0.0, 6.0));
    }

    /// The Klee–Minty cube of dimension `n`: largest-coefficient pricing
    /// visits all `2^n` vertices, so the cold solve takes `2^n − 1` pivots.
    fn klee_minty(n: usize) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n)
            .map(|j| m.add_var(format!("x{j}"), VarKind::Continuous, 0.0, f64::INFINITY))
            .collect();
        for i in 0..n {
            let mut row = LinExpr::from(xs[i]);
            for (j, &x) in xs.iter().enumerate().take(i) {
                row = row + (2f64.powi((i - j + 1) as i32), x);
            }
            m.add_constraint(row, Cmp::Le, 5f64.powi(i as i32 + 1));
        }
        let mut obj = LinExpr::new();
        for (j, &x) in xs.iter().enumerate() {
            obj = obj + (2f64.powi((n - 1 - j) as i32), x);
        }
        m.set_objective(obj);
        m
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test builds its deadline from the clock"
    )]
    fn expired_deadline_stops_a_long_solve_within_one_check_window() {
        let m = klee_minty(9);
        let sf = std_form(&m, false);
        let (control, control_stats, _) = cold_solve_tab(&m, &sf, None);
        let LpOutcome::Optimal(opt) = control else {
            panic!("Klee–Minty is feasible and bounded, got {control:?}");
        };
        assert!((opt.objective - 5f64.powi(9)).abs() < 1e-6);
        assert!(
            control_stats.pivots > CANCEL_CHECK_MASK + 1,
            "the control must outlast one check window, took {} pivots",
            control_stats.pivots
        );
        // Expired, but nobody has polled it yet: only the pivot loop's own
        // poll can see the deadline.
        let cancel = crate::cancel::Cancel::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        assert!(!cancel.is_set());
        let (out, stats, tab) = cold_solve_tab(&m, &sf, Some(&cancel));
        assert!(matches!(out, LpOutcome::Cancelled), "got {out:?}");
        assert!(tab.is_none());
        assert!(
            stats.pivots <= CANCEL_CHECK_MASK + 1,
            "stopped after {} pivots",
            stats.pivots
        );
        assert!(cancel.is_set(), "the pivot loop's poll latches the token");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Brute-force GMI validity: on random small integer programs, no
        /// cut read off the optimal root tableau may exclude any
        /// integer-feasible point of the box.
        #[test]
        fn gomory_cuts_never_exclude_integer_points(
            bounds in proptest::array::uniform3((-3i64..=3, 0i64..=5)),
            cons in proptest::collection::vec(
                (proptest::array::uniform3(-3i64..=3), -8i64..=12, 0u8..=8), 1..4),
            obj in proptest::array::uniform3(-3i64..=3),
        ) {
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, w))| {
                    m.add_var(format!("x{i}"), VarKind::Integer, lo as f64, (lo + w) as f64)
                })
                .collect();
            for (coefs, rhs, cmp) in &cons {
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

            let (outcome, dt, _) = DiveTableau::new(&m, None);
            if let (LpOutcome::Optimal(_), Some(dt)) = (outcome, dt) {
                let cuts = dt.gomory_cuts(&m, &[true, true, true], 8, 64);
                let rng: Vec<std::ops::RangeInclusive<i64>> = bounds
                    .iter()
                    .map(|&(lo, w)| lo..=(lo + w))
                    .collect();
                for x0 in rng[0].clone() {
                    for x1 in rng[1].clone() {
                        for x2 in rng[2].clone() {
                            let p = [x0 as f64, x1 as f64, x2 as f64];
                            if m.check_feasible(&p, 1e-6).is_err() {
                                continue;
                            }
                            for (terms, rhs) in &cuts {
                                let lhs: f64 =
                                    terms.iter().map(|&(v, c)| c * p[v.index()]).sum();
                                prop_assert!(
                                    lhs <= rhs + 1e-6,
                                    "cut {terms:?} <= {rhs} excludes feasible {p:?} (lhs {lhs})"
                                );
                            }
                        }
                    }
                }
            }
        }

        /// Priming is a pure scheduling change: on random tightening
        /// chains, a clone whose steepest-edge weights were primed before
        /// step `prime_at`'s fold and a clone left to initialize them
        /// lazily take bit-identical steps with identical work counters —
        /// also under the probes' repair cap, and on clones refilled by
        /// `clone_from` the way probes and dives take their snapshots.
        #[test]
        fn primed_dse_weights_match_lazy_initialization(
            bounds in proptest::array::uniform8((-3i64..=3, 2i64..=8)),
            cons in proptest::collection::vec(
                (proptest::array::uniform8(-3i64..=3), 0i64..=4, any::<bool>()), 3..9),
            obj in proptest::array::uniform8(-4i64..=4),
            chain in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0u8..=4, 0u8..=4), 1..4), 1..7),
            prime_at in 0usize..7,
            cap_pick in 0usize..3,
        ) {
            let cap = [usize::MAX, 1, 3][cap_pick];
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, w))| {
                    m.add_var(format!("x{i}"), VarKind::Continuous, lo as f64, (lo + w) as f64)
                })
                .collect();
            // Every row holds at the box centre (within `slack`), so the
            // relaxation is feasible and bounded and every case dives.
            for (coefs, slack, le) in &cons {
                let mut e = LinExpr::new();
                let mut at_centre = 0.0;
                for (i, &c) in coefs.iter().enumerate() {
                    e = e + (c as f64, vars[i]);
                    at_centre += c as f64 * (bounds[i].0 as f64 + bounds[i].1 as f64 / 2.0);
                }
                if *le {
                    m.add_constraint(e, Cmp::Le, at_centre + *slack as f64);
                } else {
                    m.add_constraint(e, Cmp::Ge, at_centre - *slack as f64);
                }
            }
            let mut o = LinExpr::new();
            for (i, &c) in obj.iter().enumerate() {
                o = o + (c as f64, vars[i]);
            }
            m.set_objective(o);

            let (_, dt, _) = DiveTableau::new(&m, None);
            let dt = dt.expect("the box centre is feasible");
            // Step outcome: 0 optimal / 1 infeasible / 2 stalled, plus
            // the objective and value bits, plus the work counters.
            type Trace = Vec<(u8, Option<(u64, Vec<u64>)>, (usize, usize, usize))>;
            let run = |t: &mut DiveTableau, prime: Option<usize>| -> Trace {
                let mut trace = Trace::new();
                for (k, step) in chain.iter().enumerate() {
                    if prime == Some(k) {
                        t.prime_dse();
                    }
                    // Each step shrinks a few boxes by tenths of their
                    // width, so several rows can turn infeasible at
                    // once and the pricing rule has a choice to make.
                    let change: Vec<_> = step
                        .iter()
                        .map(|&(v, dlo, dhi)| {
                            let (lo, hi) = t.bounds(vars[v]);
                            let w = (hi - lo) / 10.0;
                            (vars[v], lo + dlo as f64 * w, hi - dhi as f64 * w)
                        })
                        .collect();
                    let (kind, bits) = match t.tighten_capped(&change, &m, cap) {
                        DiveStep::Optimal(s) => (0, Some((
                            s.objective.to_bits(),
                            s.values.iter().map(|x| x.to_bits()).collect(),
                        ))),
                        DiveStep::Infeasible => (1, None),
                        DiveStep::Stalled | DiveStep::Cancelled => (2, None),
                    };
                    trace.push((kind, bits, t.work()));
                    if kind != 0 {
                        break;
                    }
                }
                trace
            };
            let mut buf = dt.clone();
            let primed = run(&mut buf, Some(prime_at));
            // The used buffer, refilled in place the way probe scratch
            // and dive snapshots are, must forget its own weights.
            buf.clone_from(&dt);
            let lazy = run(&mut buf, None);
            prop_assert_eq!(primed, lazy);
        }
    }
}

//! MILP model builder: variables with bounds and kinds, linear constraints,
//! and an objective.

use crate::expr::LinExpr;
use std::fmt;

/// Index of a decision variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Variable integrality class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued.
    Integer,
    /// Integer restricted to `{0, 1}` (bounds are clamped on creation).
    Binary,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

#[derive(Clone, Debug)]
pub(crate) struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub lo: f64,
    pub hi: f64,
}

#[derive(Clone, Debug)]
pub(crate) struct Constraint {
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Size statistics of a model — the quantity Table T3 of the reproduction
/// measures against the paper's `O(n²)` variables / `O(m + n²)` constraints
/// claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Continuous variables.
    pub continuous: usize,
    /// General integer variables.
    pub integer: usize,
    /// Binary variables.
    pub binary: usize,
    /// Number of linear constraints.
    pub constraints: usize,
    /// Total nonzero coefficients across constraints.
    pub nonzeros: usize,
}

impl ModelStats {
    /// Total variable count.
    pub fn variables(&self) -> usize {
        self.continuous + self.integer + self.binary
    }

    /// Integer-or-binary variable count (the paper counts "integer
    /// variables", i.e. everything that is not relaxed).
    pub fn integral(&self) -> usize {
        self.integer + self.binary
    }
}

/// A mixed-integer linear program.
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
        }
    }

    /// Adds a variable. Binary variables get their bounds clamped to
    /// `[0, 1]`. Lower bounds must be finite (the register-saturation
    /// models always shift domains to finite ranges, per the paper's
    /// requirement that "linear writing of logical operators requires to
    /// bound the domain set of the integer variables").
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, lo: f64, hi: f64) -> VarId {
        let (lo, hi) = match kind {
            VarKind::Binary => (lo.max(0.0), hi.min(1.0)),
            _ => (lo, hi),
        };
        assert!(lo.is_finite(), "variable lower bound must be finite");
        assert!(lo <= hi, "empty domain [{lo}, {hi}] for {}", name.into());
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable {
            name: String::new(),
            kind,
            lo,
            hi,
        });
        id
    }

    /// Adds a named variable, keeping the name for diagnostics.
    pub fn add_named_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lo: f64,
        hi: f64,
    ) -> VarId {
        let name = name.into();
        let id = self.add_var(name.clone(), kind, lo, hi);
        self.vars[id.index()].name = name;
        id
    }

    /// Adds the constraint `expr cmp rhs`. The expression is normalized; a
    /// constant expression is checked immediately and recorded as a trivial
    /// feasible/infeasible marker row.
    pub fn add_constraint(&mut self, mut expr: LinExpr, cmp: Cmp, rhs: f64) {
        expr.normalize();
        // Fold the expression constant into the rhs.
        let rhs = rhs - expr.constant;
        expr.constant = 0.0;
        self.constraints.push(Constraint { expr, cmp, rhs });
    }

    /// Adds the constraint `Σ terms cmp rhs` from a term slice — the
    /// allocation-light twin of [`Model::add_constraint`]. Callers that
    /// emit many constraints (the logical linearizations) assemble each row
    /// in a reused scratch buffer and hand it over here; only the single
    /// `Vec` the model stores is allocated, no intermediate expression
    /// chain.
    pub fn add_constraint_terms(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        let mut expr = LinExpr {
            terms: terms.to_vec(),
            constant: 0.0,
        };
        expr.normalize();
        self.constraints.push(Constraint { expr, cmp, rhs });
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, mut obj: LinExpr) {
        obj.normalize();
        self.objective = obj;
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Read access to the `i`-th constraint as `(terms, cmp, rhs)`. The
    /// stored expression constant is always zero ([`Model::add_constraint`]
    /// folds it into the rhs), so the triple is the whole row — this is
    /// what the cut separator and external inspectors walk.
    pub fn constraint(&self, i: usize) -> (&[(VarId, f64)], Cmp, f64) {
        let c = &self.constraints[i];
        // Walkers (cut separator, auditor) rely on the triple being the
        // whole row, so the fold invariant is enforced in release too.
        assert!(
            c.expr.constant == 0.0,
            "row constants fold into rhs, found {}",
            c.expr.constant
        );
        (&c.expr.terms, c.cmp, c.rhs)
    }

    /// Variable kind.
    pub fn kind(&self, v: VarId) -> VarKind {
        self.vars[v.index()].kind
    }

    /// Is the variable integrality-constrained (integer or binary)? The
    /// predicate behind every integral-rounding decision in the solver
    /// stack (bound folds, node propagation, branch-and-bound candidate
    /// scans).
    pub fn is_integral(&self, v: VarId) -> bool {
        !matches!(self.vars[v.index()].kind, VarKind::Continuous)
    }

    /// Variable bounds `(lo, hi)`.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        let var = &self.vars[v.index()];
        (var.lo, var.hi)
    }

    /// Variable name (may be empty).
    pub fn name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Tightens a variable's bounds (used by branch-and-bound, node
    /// propagation and the bound-folding path of the linearizations).
    ///
    /// Binary variables are re-clamped to `[0, 1]` exactly as on creation,
    /// and the result is validated: an empty domain (`lo > hi` after
    /// clamping) or a non-finite lower bound panics instead of silently
    /// producing a model the simplex would mis-shift.
    pub fn set_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        let var = &mut self.vars[v.index()];
        let (lo, hi) = match var.kind {
            VarKind::Binary => (lo.max(0.0), hi.min(1.0)),
            _ => (lo, hi),
        };
        assert!(lo.is_finite(), "x{}: lower bound must be finite", v.0);
        assert!(lo <= hi, "x{}: empty domain [{lo}, {hi}]", v.0);
        var.lo = lo;
        var.hi = hi;
    }

    /// Adds `Σ terms cmp rhs`, folding a single-variable row into that
    /// variable's bounds instead of materializing a constraint — the
    /// bounded-variable simplex handles bounds for free, so a `a·x ≤ b` row
    /// would only grow the tableau. Integral variables get the folded bound
    /// rounded inward. When folding would empty the domain (the row is
    /// infeasible under the current bounds) the row is kept so the solver
    /// reports infeasibility through its normal path.
    ///
    /// Returns `true` when the row was absorbed into a bound.
    pub fn add_bound_or_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> bool {
        let mut expr = LinExpr {
            terms: terms.to_vec(),
            constant: 0.0,
        };
        expr.normalize();
        if let [(v, a)] = expr.terms[..] {
            if a.abs() > crate::EPS && self.try_fold_bound(v, a, cmp, rhs) {
                return true;
            }
        }
        self.constraints.push(Constraint { expr, cmp, rhs });
        false
    }

    /// Tightens `v`'s bounds with the row `a·v cmp rhs`. Returns `false`
    /// (leaving the model untouched) when the tightened interval would be
    /// empty.
    fn try_fold_bound(&mut self, v: VarId, a: f64, cmp: Cmp, rhs: f64) -> bool {
        let (lo, hi) = self.bounds(v);
        let integral = self.is_integral(v);
        match fold_interval(lo, hi, integral, a, cmp, rhs) {
            Some((nlo, nhi)) if nlo <= nhi => {
                self.set_bounds(v, nlo, nhi);
                true
            }
            // Empty (or fractionally-pinned integer) interval: keep the
            // row so the solver reports infeasibility through its normal
            // path.
            _ => false,
        }
    }

    /// Finite interval `[lo, hi]` that `expr` is guaranteed to lie in, given
    /// the variable bounds. Infinite if any needed bound is infinite.
    /// This provides the big-M constants of the logical linearizations.
    pub fn expr_bounds(&self, expr: &LinExpr) -> (f64, f64) {
        let mut lo = expr.constant;
        let mut hi = expr.constant;
        for &(v, c) in &expr.terms {
            let (vlo, vhi) = self.bounds(v);
            if c >= 0.0 {
                lo += c * vlo;
                hi += c * vhi;
            } else {
                lo += c * vhi;
                hi += c * vlo;
            }
        }
        (lo, hi)
    }

    /// Size statistics.
    pub fn stats(&self) -> ModelStats {
        let mut s = ModelStats::default();
        for v in &self.vars {
            match v.kind {
                VarKind::Continuous => s.continuous += 1,
                VarKind::Integer => s.integer += 1,
                VarKind::Binary => s.binary += 1,
            }
        }
        s.constraints = self.constraints.len();
        s.nonzeros = self.constraints.iter().map(|c| c.expr.terms.len()).sum();
        s
    }

    /// Checks a full assignment against every constraint and bound, with
    /// tolerance `tol`. Returns the first violation description.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        if values.len() != self.vars.len() {
            return Err(format!(
                "assignment has {} values, model has {} vars",
                values.len(),
                self.vars.len()
            ));
        }
        for (i, var) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < var.lo - tol || x > var.hi + tol {
                return Err(format!(
                    "x{} = {} violates bounds [{}, {}]",
                    i, x, var.lo, var.hi
                ));
            }
            if !matches!(var.kind, VarKind::Continuous) && (x - x.round()).abs() > tol {
                return Err(format!("x{} = {} is not integral", i, x));
            }
        }
        for (ci, c) in self.constraints.iter().enumerate() {
            let lhs = c.expr.eval(values);
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint {} violated: lhs = {}, {:?} rhs = {}",
                    ci, lhs, c.cmp, c.rhs
                ));
            }
        }
        Ok(())
    }
}

/// Interval arithmetic of a single-variable-row fold
/// ([`Model::add_bound_or_constraint`]): tightens `[lo, hi]` with the row
/// `a·x cmp rhs`, rounding inward for integral variables.
///
/// Returns `None` when the row pins an integral variable to a fractional
/// value (the row cannot be represented as a bound at all), otherwise the
/// tightened interval — **possibly empty** (`nlo > nhi`), in which case
/// the caller keeps the row.
fn fold_interval(
    lo: f64,
    hi: f64,
    integral: bool,
    a: f64,
    cmp: Cmp,
    rhs: f64,
) -> Option<(f64, f64)> {
    let x = rhs / a;
    let (mut nlo, mut nhi) = (lo, hi);
    let tightens_upper = matches!((cmp, a > 0.0), (Cmp::Le, true) | (Cmp::Ge, false));
    match cmp {
        Cmp::Le | Cmp::Ge if tightens_upper => {
            let ub = if integral {
                (x + crate::EPS).floor()
            } else {
                x
            };
            nhi = nhi.min(ub);
        }
        Cmp::Le | Cmp::Ge => {
            let lb = if integral { (x - crate::EPS).ceil() } else { x };
            nlo = nlo.max(lb);
        }
        Cmp::Eq => {
            let mut val = x;
            if integral {
                let r = val.round();
                if (val - r).abs() > crate::EPS {
                    return None;
                }
                val = r;
            }
            nlo = nlo.max(val);
            nhi = nhi.min(val);
        }
    }
    Some((nlo, nhi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_kinds() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", VarKind::Continuous, 0.0, 10.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 5.0);
        let c = m.add_var("c", VarKind::Binary, -3.0, 3.0);
        m.add_constraint(LinExpr::from(a) + b + c, Cmp::Le, 6.0);
        let s = m.stats();
        assert_eq!(s.continuous, 1);
        assert_eq!(s.integer, 1);
        assert_eq!(s.binary, 1);
        assert_eq!(s.variables(), 3);
        assert_eq!(s.integral(), 2);
        assert_eq!(s.constraints, 1);
        assert_eq!(s.nonzeros, 3);
        // binary bounds clamped
        assert_eq!(m.bounds(c), (0.0, 1.0));
    }

    #[test]
    fn expr_bounds_respects_sign() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Continuous, 1.0, 4.0);
        let b = m.add_var("b", VarKind::Continuous, -2.0, 3.0);
        let e = LinExpr::from(a) + (-2.0, b) + 1.0;
        let (lo, hi) = m.expr_bounds(&e);
        assert_eq!(lo, 1.0 - 6.0 + 1.0);
        assert_eq!(hi, 4.0 + 4.0 + 1.0);
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Continuous, 0.0, 10.0);
        m.add_constraint(LinExpr::from(a) + 5.0, Cmp::Le, 8.0);
        assert_eq!(m.constraints[0].rhs, 3.0);
        assert_eq!(m.constraints[0].expr.constant, 0.0);
    }

    #[test]
    fn check_feasible_reports_violations() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Integer, 0.0, 10.0);
        m.add_constraint(LinExpr::from(a), Cmp::Ge, 4.0);
        assert!(m.check_feasible(&[5.0], 1e-6).is_ok());
        assert!(m.check_feasible(&[3.0], 1e-6).is_err());
        assert!(m.check_feasible(&[4.5], 1e-6).is_err()); // not integral
        assert!(m.check_feasible(&[11.0], 1e-6).is_err()); // bound
        assert!(m.check_feasible(&[], 1e-6).is_err()); // arity
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn rejects_empty_domain() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("bad", VarKind::Continuous, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn set_bounds_rejects_inverted_interval() {
        // Regression: this used to be accepted silently and produced a
        // negative variable range inside the simplex.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        m.set_bounds(x, 5.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn set_bounds_rejects_infinite_lower() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        m.set_bounds(x, f64::NEG_INFINITY, 2.0);
    }

    #[test]
    fn set_bounds_reclamps_binaries() {
        // Regression: set_bounds used to un-clamp binaries to arbitrary
        // intervals.
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0);
        m.set_bounds(b, -3.0, 7.0);
        assert_eq!(m.bounds(b), (0.0, 1.0));
        m.set_bounds(b, 1.0, 1.0);
        assert_eq!(m.bounds(b), (1.0, 1.0));
    }

    #[test]
    fn single_variable_rows_fold_into_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        // 2x <= 7  =>  x <= 3 (integral rounding), no row emitted
        assert!(m.add_bound_or_constraint(&[(x, 2.0)], Cmp::Le, 7.0));
        assert_eq!(m.num_constraints(), 0);
        assert_eq!(m.bounds(x), (0.0, 3.0));
        // -x <= -2  =>  x >= 2
        assert!(m.add_bound_or_constraint(&[(x, -1.0)], Cmp::Le, -2.0));
        assert_eq!(m.bounds(x), (2.0, 3.0));
        // equality pins the variable
        assert!(m.add_bound_or_constraint(&[(x, 1.0)], Cmp::Eq, 3.0));
        assert_eq!(m.bounds(x), (3.0, 3.0));
        // a row that would empty the domain is kept as a real (infeasible)
        // constraint instead of panicking in set_bounds
        assert!(!m.add_bound_or_constraint(&[(x, 1.0)], Cmp::Le, 1.0));
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.bounds(x), (3.0, 3.0));
        // multi-variable rows pass straight through
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0);
        assert!(!m.add_bound_or_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0));
        assert_eq!(m.num_constraints(), 2);
    }
}

//! Linear encodings of logical operators (`max`, `⟹`, `⟺`, `∨`).
//!
//! Section 3 of the paper: *"Our intLP formulation use the linear writing of
//! logical formulas (⟹, ⟺, ∨) and the max operator by introducing extra
//! binary variables, as previously described in \[15\]. However, that linear
//! writing requires to bound the domain set of the integer variables."*
//!
//! Every helper here derives its big-M constants from the **finite variable
//! bounds** recorded in the model ([`Model::expr_bounds`]), exactly as the
//! thesis prescribes. `strict_step` is the granularity used to negate an
//! inequality (`¬(x ≥ r)` becomes `x ≤ r − step`); all register-saturation
//! models are integral, so the step is `1`.

use crate::expr::LinExpr;
use crate::model::{Cmp, Model, VarId, VarKind};

/// Scratch buffer for constraint emission: a row is assembled here and
/// handed to [`Model::add_constraint_terms`], which copies it once into
/// the model. Helpers that emit several rows (`max_of`) reuse one buffer
/// across all of them, so emission avoids the `LinExpr` operator chains of
/// the old path, which reallocated the term vector at every `+`/`clone`
/// (several allocations per row; now the stored copy plus one amortized
/// assembly buffer).
#[derive(Default)]
struct RowBuf {
    terms: Vec<(VarId, f64)>,
}

impl RowBuf {
    fn start(&mut self) -> &mut Self {
        self.terms.clear();
        self
    }

    fn push(&mut self, var: VarId, coef: f64) -> &mut Self {
        self.terms.push((var, coef));
        self
    }

    /// Appends `sign · e`'s terms and returns `sign · constant` for the
    /// caller to fold into the right-hand side.
    fn push_expr(&mut self, e: &LinExpr, sign: f64) -> f64 {
        for &(v, c) in &e.terms {
            self.terms.push((v, sign * c));
        }
        sign * e.constant
    }

    /// Emits the assembled row. Rows that collapse to a single variable
    /// (common when a big-M constant is zero: the guard term vanishes and
    /// the condition holds unconditionally) are folded into that variable's
    /// bounds instead of materializing a constraint — the bounded-variable
    /// simplex carries bounds for free, so such rows would only grow the
    /// tableau. See [`Model::add_bound_or_constraint`].
    fn emit(&mut self, m: &mut Model, cmp: Cmp, rhs: f64) {
        m.add_bound_or_constraint(&self.terms, cmp, rhs);
    }
}

/// Adds `k = max(terms)` and returns `k`.
///
/// Encoding: `k ≥ tᵢ` for all `i`; `k ≤ tᵢ + Mᵢ·(1 − yᵢ)` with one binary
/// `yᵢ` per term and `Σ yᵢ = 1` (some term attains the max).
pub fn max_of(m: &mut Model, name: &str, terms: &[LinExpr]) -> VarId {
    assert!(!terms.is_empty(), "max over an empty set");
    let bounds: Vec<(f64, f64)> = terms.iter().map(|t| m.expr_bounds(t)).collect();
    let k_lo = bounds.iter().map(|b| b.0).fold(f64::NEG_INFINITY, f64::max);
    let k_hi = bounds.iter().map(|b| b.1).fold(f64::NEG_INFINITY, f64::max);
    assert!(
        k_lo.is_finite() && k_hi.is_finite(),
        "max_of requires finite term bounds"
    );
    let k = m.add_named_var(name, VarKind::Integer, k_lo, k_hi);

    let mut buf = RowBuf::default();
    let mut selector_sum = LinExpr::new();
    for (i, t) in terms.iter().enumerate() {
        // k >= t_i  <=>  k - t_i >= t_i.constant (terms only)
        let c0 = buf.start().push(k, 1.0).push_expr(t, -1.0);
        buf.emit(m, Cmp::Ge, -c0);
        // k <= t_i + M_i (1 - y_i), M_i = k_hi - lo(t_i)
        let y = m.add_named_var(format!("{name}.y{i}"), VarKind::Binary, 0.0, 1.0);
        let big_m = (k_hi - bounds[i].0).max(0.0);
        let c0 = buf.start().push(k, 1.0).push_expr(t, -1.0);
        buf.push(y, big_m);
        buf.emit(m, Cmp::Le, big_m - c0);
        selector_sum = selector_sum + y;
    }
    // A single-term max degenerates to `y0 = 1`, which folds into the
    // selector's bounds like any other single-variable row.
    m.add_bound_or_constraint(&selector_sum.terms, Cmp::Eq, 1.0);
    k
}

/// `guard = 1 ⟹ expr ≥ rhs`.
pub fn indicator_ge(m: &mut Model, guard: VarId, expr: &LinExpr, rhs: f64) {
    let (lo, _) = m.expr_bounds(expr);
    assert!(lo.is_finite(), "indicator_ge requires a finite lower bound");
    let big_m = (rhs - lo).max(0.0);
    // expr >= rhs - M(1-g)  <=>  expr - M g >= rhs - M
    let mut buf = RowBuf::default();
    let c0 = buf.start().push_expr(expr, 1.0);
    buf.push(guard, -big_m);
    buf.emit(m, Cmp::Ge, rhs - big_m - c0);
}

/// `guard = 1 ⟹ expr ≤ rhs`.
pub fn indicator_le(m: &mut Model, guard: VarId, expr: &LinExpr, rhs: f64) {
    let (_, hi) = m.expr_bounds(expr);
    assert!(hi.is_finite(), "indicator_le requires a finite upper bound");
    let big_m = (hi - rhs).max(0.0);
    // expr <= rhs + M(1-g)  <=>  expr + M g <= rhs + M
    let mut buf = RowBuf::default();
    let c0 = buf.start().push_expr(expr, 1.0);
    buf.push(guard, big_m);
    buf.emit(m, Cmp::Le, rhs + big_m - c0);
}

/// Full equivalence `s = 1 ⟺ ⋀ᵢ (exprᵢ ≥ rhsᵢ)`.
///
/// Forward direction: `s = 1 ⟹ exprᵢ ≥ rhsᵢ` via [`indicator_ge`].
/// Backward direction (the paper's
/// `(P ∧ Q ∧ S) ∨ (¬P ∧ ¬Q) ∨ (¬P ∧ ¬S)` expansion): when `s = 0`, at least
/// one conjunct must *strictly* fail, chosen by fresh selector binaries.
pub fn iff_conjunction_ge(
    m: &mut Model,
    name: &str,
    s: VarId,
    conjuncts: &[(LinExpr, f64)],
    strict_step: f64,
) {
    assert!(!conjuncts.is_empty());
    for (e, r) in conjuncts {
        indicator_ge(m, s, e, *r);
    }
    // s = 0 -> ∨_i (expr_i <= rhs_i - step), via selectors d_i:
    //   d_i = 1 -> expr_i <= rhs_i - step; Σ d_i + s >= 1.
    let mut sum = LinExpr::from(s);
    for (i, (e, r)) in conjuncts.iter().enumerate() {
        let d = m.add_named_var(format!("{name}.d{i}"), VarKind::Binary, 0.0, 1.0);
        indicator_le(m, d, e, *r - strict_step);
        sum = sum + d;
    }
    m.add_constraint(sum, Cmp::Ge, 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milp::{solve, MilpConfig};
    use crate::model::Sense;

    #[test]
    fn max_of_two_fixed() {
        // x = 3, y = 7 fixed; k = max(x, y) must be 7 even when minimized.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 3.0, 3.0);
        let y = m.add_var("y", VarKind::Integer, 7.0, 7.0);
        let k = max_of(&mut m, "k", &[LinExpr::from(x), LinExpr::from(y)]);
        m.set_objective(LinExpr::from(k));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.values[k.index()].round() as i64, 7);
    }

    #[test]
    fn max_of_pushes_down_to_largest_term() {
        // free x,y in [0,10]; minimize k = max(x+2, y) with x >= 4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 4.0, 10.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0);
        let k = max_of(&mut m, "k", &[LinExpr::from(x) + 2.0, LinExpr::from(y)]);
        m.set_objective(LinExpr::from(k));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.values[k.index()].round() as i64, 6); // x=4 -> 6, y<=6
    }

    #[test]
    fn indicator_ge_binds_only_when_set() {
        // g=1 must force x >= 5; maximize g with x <= 3 -> g must be 0.
        let mut m = Model::new(Sense::Maximize);
        let g = m.add_var("g", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 0.0, 3.0);
        indicator_ge(&mut m, g, &LinExpr::from(x), 5.0);
        m.set_objective(LinExpr::from(g));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.values[g.index()].round() as i64, 0);

        // with x allowed up to 10 the guard can be 1
        let mut m = Model::new(Sense::Maximize);
        let g = m.add_var("g", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        indicator_ge(&mut m, g, &LinExpr::from(x), 5.0);
        m.set_objective(LinExpr::from(g));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.values[g.index()].round() as i64, 1);
        assert!(s.values[x.index()] >= 5.0 - 1e-6);
    }

    #[test]
    fn indicator_le_binds_only_when_set() {
        let mut m = Model::new(Sense::Maximize);
        let g = m.add_var("g", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 4.0, 10.0);
        indicator_le(&mut m, g, &LinExpr::from(x), 2.0);
        m.set_objective(LinExpr::from(g) + (0.001, x));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        // g=1 would force x <= 2, impossible with x >= 4
        assert_eq!(s.values[g.index()].round() as i64, 0);
        assert_eq!(s.values[x.index()].round() as i64, 10);
    }

    #[test]
    fn iff_both_directions() {
        // s <=> (x >= 3 ∧ y >= 4), x,y integer in [0,10].
        // Case A: x,y fixed high, minimize s -> s forced to 1.
        let mut m = Model::new(Sense::Minimize);
        let s_var = m.add_var("s", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 5.0, 5.0);
        let y = m.add_var("y", VarKind::Integer, 9.0, 9.0);
        iff_conjunction_ge(
            &mut m,
            "s",
            s_var,
            &[(LinExpr::from(x), 3.0), (LinExpr::from(y), 4.0)],
            1.0,
        );
        m.set_objective(LinExpr::from(s_var));
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.values[s_var.index()].round() as i64, 1);

        // Case B: y too small, maximize s -> s forced to 0.
        let mut m = Model::new(Sense::Maximize);
        let s_var = m.add_var("s", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 5.0, 5.0);
        let y = m.add_var("y", VarKind::Integer, 2.0, 2.0);
        iff_conjunction_ge(
            &mut m,
            "s",
            s_var,
            &[(LinExpr::from(x), 3.0), (LinExpr::from(y), 4.0)],
            1.0,
        );
        m.set_objective(LinExpr::from(s_var));
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.values[s_var.index()].round() as i64, 0);

        // Case C: free x, y; maximize s: solver must raise x and y.
        let mut m = Model::new(Sense::Maximize);
        let s_var = m.add_var("s", VarKind::Binary, 0.0, 1.0);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0);
        iff_conjunction_ge(
            &mut m,
            "s",
            s_var,
            &[(LinExpr::from(x), 3.0), (LinExpr::from(y), 4.0)],
            1.0,
        );
        m.set_objective(LinExpr::from(s_var));
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.values[s_var.index()].round() as i64, 1);
        assert!(sol.values[x.index()] >= 3.0 - 1e-6);
        assert!(sol.values[y.index()] >= 4.0 - 1e-6);
    }

    #[test]
    fn max_of_many_terms() {
        let mut m = Model::new(Sense::Minimize);
        let vals = [2.0, 9.0, 4.0, 9.0, 1.0];
        let vars: Vec<LinExpr> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| LinExpr::from(m.add_var(format!("v{i}"), VarKind::Integer, v, v)))
            .collect();
        let k = max_of(&mut m, "k", &vars);
        m.set_objective(LinExpr::from(k));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.values[k.index()].round() as i64, 9);
    }
}

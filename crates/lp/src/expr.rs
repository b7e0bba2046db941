//! Sparse linear expressions `Σ cᵢ·xᵢ + constant`.

use crate::model::VarId;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A sparse linear expression. Terms with the same variable are merged by
/// [`LinExpr::normalize`], which the model does automatically on insertion.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms. May contain duplicates until
    /// normalized.
    pub terms: Vec<(VarId, f64)>,
    /// Additive constant.
    pub constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A single-term expression `coeff · var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Adds `coeff · var` in place and returns `self` (builder style).
    pub fn plus(mut self, coeff: f64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds a constant in place and returns `self`.
    pub fn plus_const(mut self, c: f64) -> Self {
        self.constant += c;
        self
    }

    /// Merges duplicate variables and drops (near-)zero coefficients:
    /// anything within the solver tolerance [`crate::EPS`] of zero is
    /// numerical noise (e.g. a coefficient that cancelled to `1e-16`
    /// instead of `0.0`) and would otherwise survive as a phantom term
    /// that perturbs pivoting.
    pub fn normalize(&mut self) {
        self.terms.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| !crate::approx_zero(c));
        self.terms = out;
    }

    /// Evaluates against an assignment vector indexed by variable id.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(self, v: VarId) -> LinExpr {
        self.plus(1.0, v)
    }
}

impl Add<(f64, VarId)> for LinExpr {
    type Output = LinExpr;
    fn add(self, (c, v): (f64, VarId)) -> LinExpr {
        self.plus(c, v)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(self, c: f64) -> LinExpr {
        self.plus_const(c)
    }
}

impl Add<LinExpr> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, other: LinExpr) -> LinExpr {
        self.terms.extend(other.terms);
        self.constant += other.constant;
        self
    }
}

impl AddAssign<LinExpr> for LinExpr {
    fn add_assign(&mut self, other: LinExpr) {
        self.terms.extend(other.terms);
        self.constant += other.constant;
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(self, v: VarId) -> LinExpr {
        self.plus(-1.0, v)
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(self, c: f64) -> LinExpr {
        self.plus_const(-c)
    }
}

impl Sub<LinExpr> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, other: LinExpr) -> LinExpr {
        for (v, c) in other.terms {
            self.terms.push((v, -c));
        }
        self.constant -= other.constant;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn builder_and_eval() {
        let e = LinExpr::from(v(0)) + (2.0, v(1)) + 3.0;
        assert_eq!(e.eval(&[10.0, 20.0]), 10.0 + 40.0 + 3.0);
    }

    #[test]
    fn normalize_merges_and_drops() {
        let mut e = LinExpr::from(v(1)) + v(0) + (2.0, v(1)) + (-1.0, v(0));
        e.normalize();
        assert_eq!(e.terms, vec![(v(1), 3.0)]);
    }

    #[test]
    fn subtraction_and_negation() {
        let a = LinExpr::from(v(0)) + 5.0;
        let b = LinExpr::from(v(1)) + 2.0;
        let mut d = a - b;
        d.normalize();
        assert_eq!(d.eval(&[1.0, 1.0]), 1.0 - 1.0 + 3.0);
        let n = -(LinExpr::from(v(0)) + 1.0);
        assert_eq!(n.eval(&[4.0]), -5.0);
    }

    #[test]
    fn scalar_multiplication() {
        let e = (LinExpr::from(v(0)) + 1.0) * 3.0;
        assert_eq!(e.eval(&[2.0]), 9.0);
    }

    #[test]
    fn normalize_drops_subtolerance_noise() {
        // Regression for the tolerance rewrite: coefficients that cancel
        // to sub-EPS noise (1e-12) must vanish exactly like literal
        // zeros, while coefficients just above EPS must survive.
        let mut e = LinExpr::from(v(0)) + (-1.0 + 1e-12, v(0)) + (1e-6, v(1));
        e.normalize();
        assert_eq!(e.terms, vec![(v(1), 1e-6)]);
        let mut z = LinExpr::term(v(2), 1e-12);
        z.normalize();
        assert!(z.terms.is_empty());
    }

    #[test]
    fn constant_expression() {
        let mut e = LinExpr::constant(7.0) + (0.0, v(3));
        e.normalize();
        assert!(e.terms.is_empty());
        assert_eq!(e.eval(&[0.0; 4]), 7.0);
    }
}

//! Heuristic register-saturation reduction (the CC'01 value-serialization
//! algorithm \[14\] whose near-optimality Section 5 of the paper measures).
//!
//! While `RS*(G) > R`, pick two values `u, v` from the current saturating
//! antichain and *serialize* `u`'s lifetime before `v`'s: add arcs from
//! every reader of `u` (except `v`) to `v`, with latency
//! `δr(reader) − δw(v)`, so that `u` is dead before `v` is defined in every
//! schedule. Candidates are ranked by the projected critical-path increase
//! (the paper's requirement that added arcs "save ILP as much as possible by
//! taking care of the critical path"); ties prefer fewer arcs.
//!
//! Failure (no valid candidate while `RS* > R`) means spilling is
//! unavoidable at this budget — the same terminal case as Section 4's
//! exact method.

use crate::heuristic::GreedyK;
use crate::model::{Ddg, RegType};
use rs_graph::paths::{asap, longest_to, LongestPaths};
use rs_graph::NodeId;

/// The value-serialization reducer.
///
/// ```
/// use rs_core::model::{DdgBuilder, OpClass, RegType, Target};
/// use rs_core::reduce::Reducer;
///
/// // two independent def-use chains: RS = 2, reducible to 1
/// let mut b = DdgBuilder::new(Target::superscalar());
/// for i in 0..2 {
///     let v = b.op(format!("v{i}"), OpClass::IntAlu, Some(RegType::INT));
///     let s = b.op(format!("s{i}"), OpClass::Store, None);
///     b.flow(v, s, 1, RegType::INT);
/// }
/// let mut ddg = b.finish();
///
/// let outcome = Reducer::new().reduce(&mut ddg, RegType::INT, 1);
/// assert!(outcome.fits());
/// assert!(!outcome.added_arcs().is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Reducer {
    /// The saturation estimator used between steps.
    pub heuristic: GreedyK,
    /// Hard bound on serialization steps (0 = `4·n²`).
    pub max_steps: usize,
    /// Confirm every "fits" verdict with the exact solver and keep reducing
    /// on its witness antichain when the heuristic under-estimated. With
    /// this on, a [`ReduceOutcome::Reduced`] result guarantees the *exact*
    /// saturation meets the budget (as long as the exact search stayed
    /// within its node budget). Costs an exact solve per step.
    pub verify_exact: bool,
}

/// Result of a heuristic reduction.
#[derive(Clone, Debug)]
pub enum ReduceOutcome {
    /// `RS ≤ R` already — the DDG is untouched (the key advantage over
    /// minimization approaches, Section 6).
    AlreadyFits {
        /// The measured saturation.
        rs: usize,
    },
    /// Saturation successfully brought to `rs_after ≤ R`.
    Reduced {
        /// Saturation before reduction.
        rs_before: usize,
        /// Saturation after reduction (`≤ R`).
        rs_after: usize,
        /// Critical path before.
        cp_before: i64,
        /// Critical path after (the ILP loss is `cp_after − cp_before`).
        cp_after: i64,
        /// Serialization arcs added (src, dst, latency).
        added_arcs: Vec<(NodeId, NodeId, i64)>,
        /// Serialization steps taken.
        steps: usize,
    },
    /// No further valid serialization exists while `RS > R`.
    Failed {
        /// Saturation before reduction.
        rs_before: usize,
        /// Best saturation reached.
        best_rs: usize,
        /// Critical path after the partial reduction.
        cp_after: i64,
        /// Arcs added by the partial reduction.
        added_arcs: Vec<(NodeId, NodeId, i64)>,
    },
}

impl ReduceOutcome {
    /// Whether the budget was met.
    pub fn fits(&self) -> bool {
        !matches!(self, ReduceOutcome::Failed { .. })
    }

    /// The ILP loss (critical-path increase), 0 when untouched.
    pub fn ilp_loss(&self) -> i64 {
        match self {
            ReduceOutcome::AlreadyFits { .. } => 0,
            ReduceOutcome::Reduced {
                cp_before,
                cp_after,
                ..
            } => cp_after - cp_before,
            ReduceOutcome::Failed { .. } => 0,
        }
    }

    /// Arcs added by the reduction.
    pub fn added_arcs(&self) -> &[(NodeId, NodeId, i64)] {
        match self {
            ReduceOutcome::AlreadyFits { .. } => &[],
            ReduceOutcome::Reduced { added_arcs, .. } => added_arcs,
            ReduceOutcome::Failed { added_arcs, .. } => added_arcs,
        }
    }
}

/// One candidate serialization `u ≺ v`.
#[derive(Clone, Debug)]
struct Candidate {
    u: NodeId,
    v: NodeId,
    arcs: Vec<(NodeId, NodeId, i64)>,
    /// Projected critical-path increase.
    cost: i64,
}

/// A saturation estimator: returns the estimate and its witness antichain,
/// like [`GreedyK::saturation`]. The batch engine supplies a scratch-backed
/// one to `Reducer::reduce_with`.
pub type RsEstimator<'a> = dyn FnMut(&Ddg, RegType) -> (usize, Vec<NodeId>) + 'a;

impl Reducer {
    /// Creates the reducer with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures the saturation: the supplied estimate, upgraded to the
    /// exact value (with its witness antichain) in `verify_exact` mode when
    /// the estimate already fits.
    fn measure(
        &self,
        ddg: &Ddg,
        t: RegType,
        r: usize,
        estimate: &mut RsEstimator<'_>,
    ) -> (usize, Vec<NodeId>) {
        let est = estimate(ddg, t);
        if self.verify_exact && est.0 <= r {
            let exact = crate::exact::ExactRs::new().saturation(ddg, t);
            if exact.saturation > est.0 {
                return (exact.saturation, exact.saturating_values);
            }
        }
        est
    }

    /// Reduces `RS_t(ddg)` below `r` by adding serialization arcs in place.
    ///
    /// Thin wrapper: execution is delegated to a fresh
    /// [`crate::engine::RsEngine`] carrying this reducer's settings —
    /// [`crate::engine::RsEngine::reduce_with`] is the single execution
    /// path. Keep an engine alive across calls to reuse its scratch.
    pub fn reduce(&self, ddg: &mut Ddg, t: RegType, r: usize) -> ReduceOutcome {
        crate::engine::RsEngine::with_params(self.heuristic.clone()).reduce_with(self, ddg, t, r)
    }

    /// [`Reducer::reduce`] with a caller-supplied saturation estimator —
    /// the hook [`crate::engine::RsEngine`] uses to route every per-step
    /// measurement through its scratch. The estimator must behave like
    /// [`GreedyK::saturation`] (return the estimate and its witness
    /// antichain); `verify_exact` upgrades still apply on top of it.
    pub(crate) fn reduce_with(
        &self,
        ddg: &mut Ddg,
        t: RegType,
        r: usize,
        estimate: &mut RsEstimator<'_>,
        cancel: &rs_lp::Cancel,
    ) -> ReduceOutcome {
        assert!(r >= 1, "register budget must be positive");
        let (rs_first, sat_first) = self.measure(ddg, t, r, estimate);
        if rs_first <= r {
            return ReduceOutcome::AlreadyFits { rs: rs_first };
        }
        let rs_before = rs_first;
        let cp_before = ddg.critical_path();
        let max_steps = if self.max_steps == 0 {
            4 * ddg.num_ops() * ddg.num_ops()
        } else {
            self.max_steps
        };

        let mut added: Vec<(NodeId, NodeId, i64)> = Vec::new();
        let mut best_rs = rs_before;
        let mut current = (rs_first, sat_first);
        for step in 0..max_steps {
            if current.0 <= r {
                return ReduceOutcome::Reduced {
                    rs_before,
                    rs_after: current.0,
                    cp_before,
                    cp_after: ddg.critical_path(),
                    added_arcs: added,
                    steps: step,
                };
            }
            // Cooperative cancellation between steps: the arcs added so far
            // stay in the DDG (each one is a valid serialization), so the
            // partial progress is reported as `Failed` — a typed, truthful
            // "did not reach r" with everything achieved up to the cut.
            if cancel.cancelled() {
                return ReduceOutcome::Failed {
                    rs_before,
                    best_rs,
                    cp_after: ddg.critical_path(),
                    added_arcs: added,
                };
            }
            let Some(best) = self.best_candidate(ddg, t, &current.1) else {
                return ReduceOutcome::Failed {
                    rs_before,
                    best_rs,
                    cp_after: ddg.critical_path(),
                    added_arcs: added,
                };
            };
            for &(s, d, lat) in &best.arcs {
                ddg.add_serial(s, d, lat);
                added.push((s, d, lat));
            }
            // lint:allow(D-04) candidate arc sets were acyclicity-checked when scored; this re-asserts after re-application
            debug_assert!(ddg.is_acyclic(), "serialization must keep the DDG acyclic");
            current = self.measure(ddg, t, r, estimate);
            best_rs = best_rs.min(current.0);
        }
        ReduceOutcome::Failed {
            rs_before,
            best_rs,
            cp_after: ddg.critical_path(),
            added_arcs: added,
        }
    }

    /// Enumerates valid serializations among the saturating values and
    /// returns the cheapest.
    fn best_candidate(&self, ddg: &Ddg, t: RegType, saturating: &[NodeId]) -> Option<Candidate> {
        let lp = LongestPaths::new(ddg.graph());
        let asap_v = asap(ddg.graph());
        let to_bottom = longest_to(ddg.graph(), ddg.bottom());
        let cp = ddg.critical_path();

        let mut best: Option<Candidate> = None;
        for &u in saturating {
            let readers = ddg.consumers(u, t);
            for &v in saturating {
                if u == v {
                    continue;
                }
                let mut arcs = Vec::new();
                let mut valid = true;
                let mut cost = 0i64;
                for &reader in &readers {
                    if reader == v {
                        continue;
                    }
                    let lat = ddg.delta_r(reader) - ddg.delta_w(v);
                    if matches!(lp.lp(reader, v), Some(d) if d >= lat) {
                        continue; // already implied
                    }
                    if lp.reaches(v, reader) || v == reader {
                        valid = false; // would create a circuit
                        break;
                    }
                    let through = asap_v[reader.index()] + lat + to_bottom[v.index()].unwrap_or(0);
                    cost = cost.max(through - cp);
                    arcs.push((reader, v, lat));
                }
                if !valid || arcs.is_empty() {
                    continue;
                }
                let cost = cost.max(0);
                let better = match &best {
                    None => true,
                    Some(b) => (cost, arcs.len(), u, v) < (b.cost, b.arcs.len(), b.u, b.v),
                };
                if better {
                    best = Some(Candidate { u, v, arcs, cost });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactRs;
    use crate::model::{DdgBuilder, OpClass, Target};

    fn parallel_chains(k: usize) -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        for i in 0..k {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT));
            let s = b.op(format!("s{i}"), OpClass::Store, None);
            b.flow(v, s, 4, RegType::FLOAT);
        }
        b.finish()
    }

    #[test]
    fn already_fits_leaves_graph_untouched() {
        let mut d = parallel_chains(3);
        let edges_before = d.graph().edge_count();
        let out = Reducer::new().reduce(&mut d, RegType::FLOAT, 4);
        assert!(matches!(out, ReduceOutcome::AlreadyFits { rs: 3 }));
        assert_eq!(d.graph().edge_count(), edges_before);
        assert_eq!(out.ilp_loss(), 0);
        assert!(out.added_arcs().is_empty());
    }

    #[test]
    fn reduces_parallel_chains() {
        for budget in [1usize, 2, 3] {
            let mut d = parallel_chains(4);
            let out = Reducer::new().reduce(&mut d, RegType::FLOAT, budget);
            assert!(out.fits(), "budget {budget}: {:?}", out);
            let after = ExactRs::new().saturation(&d, RegType::FLOAT);
            assert!(after.proven_optimal);
            assert!(
                after.saturation <= budget,
                "budget {budget}: exact RS after = {}",
                after.saturation
            );
            assert!(d.is_acyclic());
        }
    }

    #[test]
    fn reduction_preserves_original_edges() {
        let mut d = parallel_chains(4);
        let originals: Vec<_> = d.graph().edge_ids().collect();
        let _ = Reducer::new().reduce(&mut d, RegType::FLOAT, 2);
        for e in originals {
            assert!(d.graph().edge_alive(e), "original edge {:?} removed", e);
        }
    }

    #[test]
    fn impossible_budget_fails_cleanly() {
        // two loads into one add: both alive at the add; RS cannot reach 1.
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(l1, add, 4, RegType::FLOAT);
        b.flow(l2, add, 4, RegType::FLOAT);
        b.flow(add, st, 3, RegType::FLOAT);
        let mut d = b.finish();
        let out = Reducer::new().reduce(&mut d, RegType::FLOAT, 1);
        assert!(!out.fits());
        // the graph must remain schedulable even after a failed attempt
        assert!(d.is_acyclic());
    }

    #[test]
    fn ilp_loss_is_reported() {
        // A diamond of loads where reduction must stretch the critical path.
        let mut d = parallel_chains(6);
        let cp0 = d.critical_path();
        let out = Reducer::new().reduce(&mut d, RegType::FLOAT, 2);
        assert!(out.fits());
        match out {
            ReduceOutcome::Reduced {
                cp_before,
                cp_after,
                ref added_arcs,
                ..
            } => {
                assert_eq!(cp_before, cp0);
                assert!(cp_after >= cp_before);
                assert!(!added_arcs.is_empty());
            }
            ref other => panic!("expected Reduced, got {:?}", other),
        }
    }

    #[test]
    fn vliw_reduction_keeps_schedulability() {
        let mut b = DdgBuilder::new(Target::vliw());
        for i in 0..4 {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT));
            let s = b.op(format!("s{i}"), OpClass::Store, None);
            b.flow(v, s, 4, RegType::FLOAT);
        }
        let mut d = b.finish();
        let out = Reducer::new().reduce(&mut d, RegType::FLOAT, 2);
        assert!(out.fits(), "{:?}", out);
        assert!(d.is_acyclic());
        let after = ExactRs::new().saturation(&d, RegType::FLOAT);
        assert!(after.saturation <= 2);
    }
}

//! The Greedy-k register-saturation heuristic (reimplementation of the
//! CC'01 estimator \[14\] whose near-optimality this paper demonstrates).
//!
//! Computing `RS_t(G)` is NP-complete; fixing a killing function makes it
//! polynomial ([`crate::killing`]). Greedy-k therefore *chooses* a killing
//! function heuristically, aiming for the widest disjoint-value DAG:
//!
//! - **Coverage:** killers that can kill many values are preferred — values
//!   killed at the same point die together, which lets them be
//!   simultaneously alive just before;
//! - **Few descendants:** killers with few value descendants induce fewer
//!   `DV_k` arcs, keeping antichains wide;
//! - **Validity:** chosen killings must not create cyclic enforcement arcs;
//!   conflicts are repaired against a fixed topological order (choosing the
//!   topologically last potential killer is always valid).
//!
//! The published description of Greedy-k leaves tie-breaking unspecified;
//! this implementation evaluates a small portfolio of greedy orders and
//! keeps the best (every candidate is a *valid* killing function, so the
//! result is always an achievable lower bound `RS* ≤ RS`). The reproduced
//! experimental property (Section 5: error ≤ 1 register, rarely) is checked
//! in the T1 experiment.
//!
//! [`GreedyK`] holds the heuristic's parameters; the algorithm itself runs
//! on [`RsEngine`] ([`crate::engine`]), its one implementation.

use crate::engine::RsEngine;
use crate::killing::KillingFunction;
use crate::model::{Ddg, RegType};
use rs_graph::NodeId;

/// Result of a saturation analysis.
#[derive(Clone, Debug)]
pub struct RsAnalysis {
    /// The register type analysed.
    pub reg_type: RegType,
    /// The estimated register saturation `RS*` (achievable: some valid
    /// schedule needs exactly this many registers).
    pub saturation: usize,
    /// A witness set of values that can be simultaneously alive.
    pub saturating_values: Vec<NodeId>,
    /// The killing function realizing the estimate.
    pub killing: KillingFunction,
    /// True when the estimate is provably optimal without search (single
    /// killing function, or the antichain already spans all values).
    pub provably_optimal: bool,
}

/// The Greedy-k heuristic.
///
/// ```
/// use rs_core::model::{DdgBuilder, OpClass, RegType, Target};
/// use rs_core::heuristic::GreedyK;
///
/// // two independent values: both can be alive at once
/// let mut b = DdgBuilder::new(Target::superscalar());
/// b.op("x", OpClass::IntAlu, Some(RegType::INT));
/// b.op("y", OpClass::IntAlu, Some(RegType::INT));
/// let ddg = b.finish();
///
/// let rs = GreedyK::new().saturation(&ddg, RegType::INT);
/// assert_eq!(rs.saturation, 2);
/// assert!(rs.provably_optimal);
/// ```
#[derive(Clone, Debug)]
pub struct GreedyK {
    /// Hill-climbing passes over the killer choices after the greedy
    /// construction: each pass tries every alternative killer of every
    /// ambiguous value and keeps switches that widen the antichain.
    /// `0` disables refinement.
    pub refine_passes: usize,
}

impl Default for GreedyK {
    fn default() -> Self {
        GreedyK { refine_passes: 3 }
    }
}

impl GreedyK {
    /// Creates the heuristic with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the register saturation estimate `RS*_t(G)` on a fresh
    /// [`RsEngine`]. Callers analysing many DAGs keep one engine alive
    /// instead, to reuse its working storage.
    pub fn saturation(&self, ddg: &Ddg, t: RegType) -> RsAnalysis {
        RsEngine::with_params(self.clone()).analyze(ddg, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    #[test]
    fn empty_type_has_zero_saturation() {
        let mut b = DdgBuilder::new(Target::superscalar());
        b.op("st", OpClass::Store, None);
        let d = b.finish();
        let rs = GreedyK::new().saturation(&d, RegType::FLOAT);
        assert_eq!(rs.saturation, 0);
        assert!(rs.provably_optimal);
    }

    #[test]
    fn independent_values_all_saturate() {
        let mut b = DdgBuilder::new(Target::superscalar());
        for i in 0..5 {
            b.op(format!("v{i}"), OpClass::IntAlu, Some(RegType::INT));
        }
        let d = b.finish();
        let rs = GreedyK::new().saturation(&d, RegType::INT);
        assert_eq!(rs.saturation, 5);
        assert!(rs.provably_optimal);
        assert_eq!(rs.saturating_values.len(), 5);
    }

    #[test]
    fn chain_saturates_at_two() {
        // v0 -> v1 -> v2 -> v3 (each consumes the previous): at any moment at
        // most two of these int values are needed... actually exactly 2: the
        // consumed one stays alive until its reader issues, at which point
        // the reader's own value is born (half-open: they touch). Width 1?
        // Lifetimes: (σ_i, σ_{i+1}]. Consecutive touch -> no interference;
        // so the chain needs exactly 1 register at saturation... but the
        // LAST value lives until ⊥ alongside nothing else. Saturation = 1.
        let mut b = DdgBuilder::new(Target::superscalar());
        let mut prev = b.op("v0", OpClass::IntAlu, Some(RegType::INT));
        for i in 1..4 {
            let n = b.op(format!("v{i}"), OpClass::IntAlu, Some(RegType::INT));
            b.flow(prev, n, 1, RegType::INT);
            prev = n;
        }
        let d = b.finish();
        let rs = GreedyK::new().saturation(&d, RegType::INT);
        assert_eq!(rs.saturation, 1);
    }

    #[test]
    fn figure2_dag_saturates_at_four() {
        // The paper's Figure 2(a): a -> b, c, d chain structure where
        // bold values {a, b, c, d} can all be alive simultaneously.
        // Modelled as: a feeds b, c, d (fan-out), plus the latency-17 edge
        // making a's lifetime long.
        let mut bld = DdgBuilder::new(Target::superscalar());
        let a = bld.op("a", OpClass::Load, Some(RegType::FLOAT));
        let b = bld.op("b", OpClass::FloatAlu, Some(RegType::FLOAT));
        let c = bld.op("c", OpClass::FloatAlu, Some(RegType::FLOAT));
        let d = bld.op("d", OpClass::FloatAlu, Some(RegType::FLOAT));
        let sink = bld.op("sink", OpClass::Store, None);
        bld.flow(a, sink, 17, RegType::FLOAT);
        bld.flow(b, sink, 1, RegType::FLOAT);
        bld.flow(c, sink, 1, RegType::FLOAT);
        bld.flow(d, sink, 1, RegType::FLOAT);
        let ddg = bld.finish();
        let rs = GreedyK::new().saturation(&ddg, RegType::FLOAT);
        assert_eq!(rs.saturation, 4);
    }

    #[test]
    fn estimate_is_achievable() {
        // The witness killing function must be valid and its width must be
        // realizable by an actual schedule's register need.
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let l3 = b.op("l3", OpClass::Load, Some(RegType::FLOAT));
        let m1 = b.op("m1", OpClass::FloatMul, Some(RegType::FLOAT));
        let m2 = b.op("m2", OpClass::FloatMul, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(l1, m1, 4, RegType::FLOAT);
        b.flow(l2, m1, 4, RegType::FLOAT);
        b.flow(l2, m2, 4, RegType::FLOAT);
        b.flow(l3, m2, 4, RegType::FLOAT);
        b.flow(m1, st, 4, RegType::FLOAT);
        b.flow(m2, st, 4, RegType::FLOAT);
        let d = b.finish();
        let rs = GreedyK::new().saturation(&d, RegType::FLOAT);
        // all three loads live together; m1 can still be alive while l3 is:
        // ASAP already needs 3+ registers.
        assert!(rs.saturation >= 3, "got {}", rs.saturation);
        // achievability: the ASAP register need never exceeds RS*... only
        // the exact RS bounds all schedules; here we check the weaker sanity
        // RN(asap) <= |values|.
        let asap = crate::lifetime::asap_schedule(&d);
        let rn = crate::lifetime::register_need(&d, RegType::FLOAT, &asap);
        assert!(rn <= d.values(RegType::FLOAT).len());
    }

    #[test]
    fn multiple_types_analysed_independently() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let i1 = b.op("i1", OpClass::IntAlu, Some(RegType::INT));
        let i2 = b.op("i2", OpClass::IntAlu, Some(RegType::INT));
        let f1 = b.op("f1", OpClass::FloatAlu, Some(RegType::FLOAT));
        let _ = (i1, i2, f1);
        let d = b.finish();
        let g = GreedyK::new();
        assert_eq!(g.saturation(&d, RegType::INT).saturation, 2);
        assert_eq!(g.saturation(&d, RegType::FLOAT).saturation, 1);
    }
}

//! The register-*minimization* strawman of Section 6.
//!
//! Classic pre-pass techniques minimize the register requirement (under a
//! critical-path constraint) regardless of how many registers exist. The
//! paper argues this is "inherently worse" than saturation-based reduction:
//!
//! - when `RS ≤ R` the minimizer still adds arcs while the RS approach adds
//!   none (Figure 2(b) vs the untouched DAG);
//! - when `RS > R` the minimizer pushes the need to the *lowest* level
//!   instead of stopping at `R`, over-serializing and under-using registers
//!   (Figure 2(b) vs 2(c)).
//!
//! This module implements that strawman faithfully so experiment T4 can
//! reproduce the comparison: it repeatedly applies **zero-ILP-cost**
//! serializations (the footnote-4 discipline: "minimize the register
//! requirement under critical path constraints") as long as they lower the
//! saturation estimate.

use crate::heuristic::GreedyK;
use crate::model::{Ddg, RegType};
use rs_graph::paths::{asap, longest_to, LongestPaths};
use rs_graph::NodeId;

/// Result of the minimization pass.
#[derive(Clone, Debug)]
pub struct MinimizeOutcome {
    /// Saturation before.
    pub rs_before: usize,
    /// Saturation after (the minimized register need bound).
    pub rs_after: usize,
    /// Arcs added.
    pub added_arcs: Vec<(NodeId, NodeId, i64)>,
    /// Critical path before (unchanged after, by construction).
    pub cp_before: i64,
    /// Critical path after (== `cp_before`; asserted).
    pub cp_after: i64,
}

/// Minimizes the register saturation of type `t` under an unchanged critical
/// path, mutating `ddg` in place.
pub fn minimize_register_need(ddg: &mut Ddg, t: RegType) -> MinimizeOutcome {
    let greedy = GreedyK::new();
    let first = greedy.saturation(ddg, t);
    let rs_before = first.saturation;
    let cp_before = ddg.critical_path();
    let mut added = Vec::new();
    let mut current = first;

    let step_limit = 4 * ddg.num_ops() * ddg.num_ops();
    for _ in 0..step_limit {
        let Some(arcs) = zero_cost_candidate(ddg, t, &current.saturating_values, cp_before) else {
            break;
        };
        // Tentatively apply; keep only if the saturation estimate drops.
        let ids: Vec<_> = arcs
            .iter()
            .map(|&(s, d, lat)| ddg.add_serial(s, d, lat))
            .collect();
        let trial = greedy.saturation(ddg, t);
        if trial.saturation < current.saturation {
            added.extend(arcs);
            current = trial;
        } else {
            for e in ids {
                ddg.remove_edge(e);
            }
            break;
        }
    }

    let cp_after = ddg.critical_path();
    #[expect(
        clippy::disallowed_macros,
        reason = "both cp values are returned in MinimizeOutcome, so callers and tests observe the invariant directly"
    )]
    {
        debug_assert_eq!(
            cp_before, cp_after,
            "minimization must not lengthen the critical path"
        );
    }
    MinimizeOutcome {
        rs_before,
        rs_after: current.saturation,
        added_arcs: added,
        cp_before,
        cp_after,
    }
}

/// A serialization among saturating values whose projected critical-path
/// increase is zero, preferring the one ordering the most values.
fn zero_cost_candidate(
    ddg: &Ddg,
    t: RegType,
    saturating: &[NodeId],
    cp: i64,
) -> Option<Vec<(NodeId, NodeId, i64)>> {
    let lp = LongestPaths::new(ddg.graph());
    let asap_v = asap(ddg.graph());
    let to_bottom = longest_to(ddg.graph(), ddg.bottom());

    for &u in saturating {
        let readers = ddg.consumers(u, t);
        'next_v: for &v in saturating {
            if u == v {
                continue;
            }
            let mut arcs = Vec::new();
            for &reader in &readers {
                if reader == v {
                    continue;
                }
                let lat = ddg.delta_r(reader) - ddg.delta_w(v);
                if matches!(lp.lp(reader, v), Some(d) if d >= lat) {
                    continue;
                }
                if lp.reaches(v, reader) {
                    continue 'next_v;
                }
                let through = asap_v[reader.index()] + lat + to_bottom[v.index()].unwrap_or(0);
                if through > cp {
                    continue 'next_v; // would stretch the critical path
                }
                arcs.push((reader, v, lat));
            }
            if !arcs.is_empty() {
                return Some(arcs);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    /// Figure 2-like: one long-latency value `a` (17 cycles) next to three
    /// short independent values, each with its own consumer. Minimization
    /// serializes the short lifetimes under `a`'s shadow even though
    /// registers may be plentiful.
    fn figure2_like() -> Ddg {
        let mut bld = DdgBuilder::new(Target::superscalar());
        let a = bld.op("a", OpClass::Load, Some(RegType::FLOAT));
        let sa = bld.op("sa", OpClass::Store, None);
        bld.flow(a, sa, 17, RegType::FLOAT);
        for name in ["b", "c", "d"] {
            let v = bld.op(name, OpClass::IntAlu, Some(RegType::FLOAT));
            let s = bld.op(format!("s{name}"), OpClass::Store, None);
            bld.flow(v, s, 1, RegType::FLOAT);
        }
        bld.finish()
    }

    #[test]
    fn minimization_adds_arcs_even_with_plentiful_registers() {
        let mut d = figure2_like();
        let out = minimize_register_need(&mut d, RegType::FLOAT);
        assert_eq!(out.rs_before, 4);
        assert!(out.rs_after < out.rs_before, "{:?}", out);
        assert!(!out.added_arcs.is_empty());
        assert_eq!(out.cp_before, out.cp_after);
        assert!(d.is_acyclic());
    }

    #[test]
    fn minimization_respects_critical_path() {
        let mut d = figure2_like();
        let cp0 = d.critical_path();
        let _ = minimize_register_need(&mut d, RegType::FLOAT);
        assert_eq!(d.critical_path(), cp0);
    }

    #[test]
    fn nothing_to_do_on_single_value() {
        let mut b = DdgBuilder::new(Target::superscalar());
        b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let mut d = b.finish();
        let out = minimize_register_need(&mut d, RegType::INT);
        assert_eq!(out.rs_before, 1);
        assert_eq!(out.rs_after, 1);
        assert!(out.added_arcs.is_empty());
    }
}

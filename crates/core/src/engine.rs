//! The register-saturation engine: the one implementation of Greedy-k
//! ([`GreedyK`]), run on reusable working storage so that analysing a
//! corpus of DAGs performs no steady-state heap allocation.
//!
//! An analysis builds a portfolio of greedy killing functions (two greedy
//! orders plus the always-valid topological-max function), keeps the
//! widest, and hill-climbs over the ambiguous killer choices. Every
//! candidate is evaluated by [`KilledScratch::build`] and
//! [`KilledScratch::dv_antichain_into`], the same two steps the exact
//! search's leaves run. The working storage holds:
//!
//! - one topological order per DAG, shared by the longest-path table and
//!   the killer position table;
//! - the DAG's longest-path table `lp(u, v)`, which answers the
//!   potential-killer sets and the greedy scores' value-descendant counts
//!   ([`LongestPaths::reaches`]);
//! - a single [`KilledScratch`] rebuilt in place for every candidate killing
//!   function — the dominant cost of the portfolio + hill-climbing search.
//!   It never copies the DDG: it lays the DDG's live arcs and the
//!   enforcement arcs out as one flat arc list, runs Kahn's sort on it and
//!   relaxes the longest-path table from it
//!   ([`LongestPaths::compute_arcs_into`]);
//! - flat `Vec`-indexed score arrays and [`FlatKilling`] killer tables;
//! - reusable Dilworth machinery ([`AntichainScratch`]).
//!
//! Only the returned [`RsAnalysis`] (witness vector + killing map) is
//! allocated per call — it is the output. [`GreedyK::saturation`] and
//! `Reducer::reduce` run a fresh engine; the `rs-serve` dispatcher behind
//! every `rsat` front end keeps one warm engine per worker and runs the
//! Figure-1 flow through [`RsEngine::reduce`], one register type at a
//! time. Engines are cheap to create and intentionally not `Sync`;
//! parallel drivers (`rsat corpus`, `rsat serve`) give each worker thread
//! its own engine.

use crate::heuristic::{GreedyK, RsAnalysis};
use crate::killing::{topo_max_killing_into, FlatKilling, KilledScratch, KillingFunction};
use crate::model::{Ddg, RegType};
use crate::pkill::{potential_killers_into, PKill};
use crate::reduce::{ReduceOutcome, Reducer};
use rs_graph::antichain::AntichainScratch;
use rs_graph::paths::LongestPaths;
use rs_graph::{topo, NodeId};
use std::collections::BTreeMap;

/// Cycle-repair iterations before a greedy candidate falls back to the
/// always-valid topological-max killing function.
const MAX_REPAIRS: usize = 32;

/// Reusable working storage for one analysis worker. All buffers grow to
/// the corpus high-water mark and are then recycled; nothing is freed
/// between DAGs.
#[derive(Default)]
struct AnalysisScratch {
    // Base-graph structures (rebuilt once per DAG).
    order: Vec<NodeId>,
    indeg: Vec<usize>,
    pos: Vec<usize>,
    lp: LongestPaths,
    pk: PKill,
    values: Vec<NodeId>,
    // Killer score arrays, flat over dense node ids.
    coverage: Vec<u32>,
    value_desc: Vec<u32>,
    // Killing-function tables.
    killer: FlatKilling,
    fallback: FlatKilling,
    best: FlatKilling,
    trial: FlatKilling,
    ambiguous: Vec<NodeId>,
    // Per-candidate evaluation structures.
    killed: KilledScratch,
    ac: AntichainScratch,
    antichain: Vec<NodeId>,
    best_antichain: Vec<NodeId>,
}

/// The candidates of the portfolio, in evaluation order.
#[derive(Clone, Copy)]
enum Strategy {
    /// Coverage descending, then value-descendant count ascending.
    CoverageFirst,
    /// Value-descendant count ascending, then coverage descending.
    DescendantsFirst,
    /// Topological-max (always valid; also the repair fallback).
    TopoMax,
}

const STRATEGIES: [Strategy; 3] = [
    Strategy::CoverageFirst,
    Strategy::DescendantsFirst,
    Strategy::TopoMax,
];

/// The Greedy-k analysis engine.
///
/// ```
/// use rs_core::engine::RsEngine;
/// use rs_core::model::{DdgBuilder, OpClass, RegType, Target};
///
/// let mut engine = RsEngine::new();
/// let mut b = DdgBuilder::new(Target::superscalar());
/// b.op("x", OpClass::IntAlu, Some(RegType::INT));
/// b.op("y", OpClass::IntAlu, Some(RegType::INT));
/// let ddg = b.finish();
///
/// let rs = engine.analyze(&ddg, RegType::INT);
/// assert_eq!(rs.saturation, 2);
/// // subsequent analyses reuse every internal buffer
/// assert_eq!(engine.analyze(&ddg, RegType::INT).saturation, 2);
/// ```
#[derive(Default)]
pub struct RsEngine {
    /// Heuristic parameters.
    pub params: GreedyK,
    /// Cooperative cancellation for the portfolio / hill-climb loops (see
    /// [`RsEngine::set_cancel`]). Default: never trips.
    pub(crate) cancel: rs_lp::Cancel,
    scratch: AnalysisScratch,
}

impl RsEngine {
    /// An engine with default [`GreedyK`] parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit heuristic parameters.
    pub fn with_params(params: GreedyK) -> Self {
        RsEngine {
            params,
            ..Self::default()
        }
    }

    /// Installs a cancellation token for subsequent [`RsEngine::analyze`] /
    /// [`RsEngine::reduce_with`] calls. A tripped token makes `analyze`
    /// stop after its cheapest portfolio candidate (the answer is always a
    /// valid killing function — just possibly narrower than the full
    /// portfolio's) and makes reductions return their partial progress.
    /// Cancellation never corrupts the scratch: the next call on this
    /// engine behaves exactly like a call on a fresh engine (property-
    /// tested in `tests/engine_cancel.rs`).
    pub fn set_cancel(&mut self, cancel: rs_lp::Cancel) {
        self.cancel = cancel;
    }

    /// Removes any installed cancellation token.
    pub fn clear_cancel(&mut self) {
        self.cancel = rs_lp::Cancel::new();
    }

    /// Computes `RS*_t(ddg)`, reusing this engine's scratch: a warm engine
    /// answers exactly as a fresh one does.
    pub fn analyze(&mut self, ddg: &Ddg, t: RegType) -> RsAnalysis {
        let refine_passes = self.params.refine_passes;
        let cancel = self.cancel.clone();
        let s = &mut self.scratch;

        ddg.values_into(t, &mut s.values);
        if s.values.is_empty() {
            return RsAnalysis {
                reg_type: t,
                saturation: 0,
                saturating_values: Vec::new(),
                killing: KillingFunction {
                    reg_type: t,
                    killer: BTreeMap::new(),
                },
                provably_optimal: true,
            };
        }

        let n = ddg.num_ops();
        topo::topo_sort_into(ddg.graph(), &mut s.indeg, &mut s.order).expect("DDG is acyclic");
        s.lp.compute_into(ddg.graph(), &s.order);
        potential_killers_into(ddg, t, &s.lp, &mut s.pk);
        let unique_killing = s.pk.killing_function_count() == 1;
        let max_width = s.values.len();

        s.pos.clear();
        s.pos.resize(n, 0);
        for (i, &u) in s.order.iter().enumerate() {
            s.pos[u.index()] = i;
        }
        topo_max_killing_into(&s.pk, &s.pos, &mut s.fallback);

        // Killer score arrays (value-descendant counts fill lazily).
        s.coverage.clear();
        s.coverage.resize(n, 0);
        for (_, ks) in s.pk.iter() {
            for &k in ks {
                s.coverage[k.index()] += 1;
            }
        }
        s.value_desc.clear();
        s.value_desc.resize(n, u32::MAX);

        // Portfolio: best of three candidates, strictly-better wins (the
        // earliest strategy keeps ties).
        let mut best_width = usize::MAX;
        let mut have_best = false;
        let mut provably_optimal = false;
        for strategy in STRATEGIES {
            let killed_current = build_killing(ddg, s, strategy);
            let Some(width) = eval_current(ddg, s, killed_current) else {
                continue; // repair failed (cannot happen for TopoMax)
            };
            if !have_best || width > best_width {
                best_width = width;
                s.best.copy_from(&s.killer);
                std::mem::swap(&mut s.best_antichain, &mut s.antichain);
                provably_optimal = unique_killing || width == max_width;
                have_best = true;
            }
            if unique_killing {
                break;
            }
            // Cancellation: stop after the first successful candidate — the
            // portfolio only widens an already-valid answer. Checked *after*
            // the attempt so a tripped token still yields one candidate.
            if have_best && cancel.cancelled() {
                break;
            }
        }
        assert!(
            have_best,
            "TopoMax strategy always yields a valid killing function"
        );

        // Hill-climbing refinement over ambiguous killer choices.
        if !unique_killing && best_width < max_width {
            s.ambiguous.clear();
            s.ambiguous
                .extend(s.pk.iter().filter(|(_, ks)| ks.len() > 1).map(|(u, _)| u));
            'passes: for _pass in 0..refine_passes {
                let mut improved = false;
                for ai in 0..s.ambiguous.len() {
                    // One poll per ambiguous value: each trial below costs a
                    // full killed-graph rebuild, so the clock read is noise.
                    if cancel.cancelled() {
                        break 'passes;
                    }
                    let u = s.ambiguous[ai];
                    let current = s.best.of(u);
                    for ki in 0..s.pk.of(u).len() {
                        let alt = s.pk.of(u)[ki];
                        if alt == current || best_width == max_width {
                            continue;
                        }
                        s.trial.copy_from(&s.best);
                        s.trial.set(u, alt);
                        std::mem::swap(&mut s.trial, &mut s.killer);
                        let width = eval_current(ddg, s, false);
                        std::mem::swap(&mut s.trial, &mut s.killer);
                        if let Some(width) = width {
                            if width > best_width {
                                best_width = width;
                                std::mem::swap(&mut s.best_antichain, &mut s.antichain);
                                s.best.copy_from(&s.trial);
                                provably_optimal = width == max_width;
                                improved = true;
                                break; // re-read `current` for this value
                            }
                        }
                    }
                }
                if !improved || best_width == max_width {
                    break 'passes;
                }
            }
        }

        RsAnalysis {
            reg_type: t,
            saturation: best_width,
            saturating_values: s.best_antichain.clone(),
            killing: s.best.to_killing_function(t, &s.pk),
            provably_optimal,
        }
    }

    /// Reduces `RS_t(ddg)` below `r` with default [`Reducer`] settings,
    /// measuring saturation through this engine. On a default engine the
    /// outcome is identical to `Reducer::new().reduce(..)`.
    pub fn reduce(&mut self, ddg: &mut Ddg, t: RegType, r: usize) -> ReduceOutcome {
        self.reduce_with(&Reducer::new(), ddg, t, r)
    }

    /// Reduction with explicit [`Reducer`] settings (budgets, exact
    /// verification), measuring every step through this engine.
    pub fn reduce_with(
        &mut self,
        reducer: &Reducer,
        ddg: &mut Ddg,
        t: RegType,
        r: usize,
    ) -> ReduceOutcome {
        reducer.reduce_with(self, ddg, t, r)
    }
}

/// Builds the greedy killing function for `strategy` into `s.killer`,
/// repairing enforcement-arc cycles against the topological order. Returns
/// `true` when `s.killed` already holds the killed graph of the returned
/// killer (the successful repair probe built it), so [`eval_current`] can
/// skip an identical rebuild of the dominant structure.
fn build_killing(ddg: &Ddg, s: &mut AnalysisScratch, strategy: Strategy) -> bool {
    if matches!(strategy, Strategy::TopoMax) {
        s.killer.copy_from(&s.fallback);
        return false;
    }
    let AnalysisScratch {
        pos,
        lp,
        pk,
        values,
        coverage,
        value_desc,
        killer,
        fallback,
        killed,
        ..
    } = s;
    let pk = &*pk;

    let mut vdesc = |k: NodeId| -> i64 {
        let cell = &mut value_desc[k.index()];
        if *cell == u32::MAX {
            *cell = values
                .iter()
                .filter(|&&v| v != k && lp.reaches(k, v))
                .count() as u32;
        }
        *cell as i64
    };
    let mut score = |k: NodeId| -> (i64, i64, i64) {
        let cov = coverage[k.index()] as i64;
        let desc = vdesc(k);
        match strategy {
            Strategy::CoverageFirst => (-cov, desc, -(pos[k.index()] as i64)),
            Strategy::DescendantsFirst => (desc, -cov, -(pos[k.index()] as i64)),
            Strategy::TopoMax => unreachable!(),
        }
    };

    killer.reset(pos.len());
    for (u, ks) in pk.iter() {
        killer.set(
            u,
            *ks.iter()
                .min_by_key(|&&k| score(k))
                .expect("pkill sets are nonempty"),
        );
    }

    // Cycle repair: re-point conflicting values at their topological-max
    // killer (arcs toward the topo-max killer always go forward).
    for _ in 0..MAX_REPAIRS {
        if killed.build(ddg, pk, killer) {
            return true;
        }
        let mut flipped = false;
        for (u, ks) in pk.iter() {
            if ks.len() > 1 && killer.of(u) != fallback.of(u) {
                killer.set(u, fallback.of(u));
                flipped = true;
                break;
            }
        }
        if !flipped {
            break;
        }
    }
    killer.copy_from(fallback);
    false
}

/// Evaluates `s.killer`: rebuilds the killed graph (unless `killed_current`
/// says `s.killed` already holds it) and computes the width of `DV_k` with
/// its maximum antichain into `s.antichain`. Returns `None` for an invalid
/// (cyclic) killing function.
fn eval_current(ddg: &Ddg, s: &mut AnalysisScratch, killed_current: bool) -> Option<usize> {
    let AnalysisScratch {
        pk,
        values,
        killer,
        killed,
        ac,
        antichain,
        ..
    } = s;
    if !killed_current && !killed.build(ddg, pk, killer) {
        return None;
    }
    Some(killed.dv_antichain_into(ddg, killer, values, ac, antichain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    fn fanout_chain_ddg(k: usize) -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        for i in 0..k {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::FLOAT));
            let s = b.op(format!("s{i}"), OpClass::Store, None);
            b.flow(v, s, 4, RegType::FLOAT);
        }
        b.finish()
    }

    fn assert_same(a: &RsAnalysis, b: &RsAnalysis) {
        assert_eq!(a.saturation, b.saturation);
        assert_eq!(a.saturating_values, b.saturating_values);
        assert_eq!(a.killing, b.killing);
        assert_eq!(a.provably_optimal, b.provably_optimal);
    }

    #[test]
    fn scratch_survives_size_changes() {
        // big → small → big: stale scratch state must never leak through
        let mut engine = RsEngine::new();
        for &k in &[7usize, 1, 5, 2, 7] {
            let d = fanout_chain_ddg(k);
            for t in [RegType::FLOAT, RegType::INT] {
                let a = engine.analyze(&d, t);
                assert_same(&a, &RsEngine::new().analyze(&d, t));
                let want = if t == RegType::FLOAT { k } else { 0 };
                assert_eq!(a.saturation, want);
            }
        }
    }
}

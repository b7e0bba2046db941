//! The batched register-saturation engine: [`GreedyK`]'s portfolio
//! heuristic re-hosted on a reusable [`AnalysisScratch`] so that analysing a
//! corpus of DAGs performs no steady-state heap allocation.
//!
//! [`crate::heuristic::GreedyK::saturation`] is the one-shot reference
//! implementation: per call it allocates transitive-closure rows, topological
//! buffers, longest-path tables and a fresh killed graph *per portfolio
//! candidate*. [`RsEngine`] computes the **identical** analysis (same
//! saturation, same witness antichain, same killing function — property-
//! tested in `tests/engine_equiv.rs`) while drawing every intermediate
//! structure from the scratch:
//!
//! - one topological order per DAG, shared by the longest-path table, the
//!   transitive closure and the killer position table;
//! - a pooled-row transitive closure ([`TransitiveClosure::build_into`]);
//! - a single [`KilledScratch`] rebuilt in place for every candidate killing
//!   function — the dominant cost of the portfolio + hill-climbing search.
//!   It never copies the DDG: it lays the DDG's live arcs and the
//!   enforcement arcs out as one flat arc list, runs Kahn's sort on it and
//!   relaxes the longest-path table from it
//!   ([`LongestPaths::compute_arcs_into`]);
//! - flat `Vec`-indexed score arrays and [`FlatKilling`] killer tables in
//!   place of the one-shot path's `BTreeMap`s;
//! - reusable Dilworth machinery ([`rs_graph::antichain::max_antichain_into`])
//!   that asks the disjoint-value relation straight off the killed graph's
//!   path table ([`killer_kills_before`]), instead of materializing the
//!   one-shot path's sorted pair list.
//!
//! Only the returned [`RsAnalysis`] (witness vector + killing map) is
//! allocated per call — it is the output. Engines are cheap to create and
//! intentionally not `Sync`; parallel drivers (`rsat corpus`, `rs-bench`)
//! give each worker thread its own engine.

use crate::heuristic::{GreedyK, RsAnalysis};
use crate::killing::{
    killer_kills_before, topo_max_killing_into, FlatKilling, KilledScratch, KillingFunction,
};
use crate::model::{Ddg, RegType};
use crate::pipeline::{Pipeline, PipelineReport};
use crate::pkill::{potential_killers_into, PKill};
use crate::reduce::{ReduceOutcome, Reducer};
use rs_graph::antichain::{max_antichain_into, AntichainScratch};
use rs_graph::bitset::BitSetPool;
use rs_graph::closure::TransitiveClosure;
use rs_graph::paths::LongestPaths;
use rs_graph::{topo, NodeId};
use std::collections::BTreeMap;

/// Reusable working storage for one analysis worker. All buffers grow to
/// the corpus high-water mark and are then recycled; nothing is freed
/// between DAGs.
#[derive(Default)]
pub struct AnalysisScratch {
    // Base-graph structures (rebuilt once per DAG).
    order: Vec<NodeId>,
    indeg: Vec<usize>,
    pos: Vec<usize>,
    lp: LongestPaths,
    tc: TransitiveClosure,
    pool: BitSetPool,
    pk: PKill,
    values: Vec<NodeId>,
    // Killer score arrays, flat over dense node ids.
    is_value: Vec<bool>,
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

impl AnalysisScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Greedy orders of the portfolio — mirrors the (private) strategy list of
/// the one-shot path; the proptest equivalence suite keeps them locked
/// together.
#[derive(Clone, Copy)]
enum Strategy {
    CoverageFirst,
    DescendantsFirst,
    TopoMax,
}

const STRATEGIES: [Strategy; 3] = [
    Strategy::CoverageFirst,
    Strategy::DescendantsFirst,
    Strategy::TopoMax,
];

/// The batch analysis engine: [`GreedyK`] semantics, scratch-backed
/// execution.
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
    /// Heuristic parameters, shared with the one-shot path.
    pub params: GreedyK,
    /// Cooperative cancellation for the portfolio / hill-climb loops (see
    /// [`RsEngine::set_cancel`]). Default: never trips.
    cancel: rs_lp::Cancel,
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

    /// Computes `RS*_t(ddg)` — identical to
    /// [`GreedyK::saturation`] with the same parameters, reusing this
    /// engine's scratch.
    pub fn analyze(&mut self, ddg: &Ddg, t: RegType) -> RsAnalysis {
        let max_repairs = self.params.max_repairs;
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
        s.tc.build_into(ddg.graph(), &s.order, &mut s.pool);

        // Killer score arrays (value-descendant counts fill lazily).
        s.is_value.clear();
        s.is_value.resize(n, false);
        for &u in &s.values {
            s.is_value[u.index()] = true;
        }
        s.coverage.clear();
        s.coverage.resize(n, 0);
        for (_, ks) in s.pk.iter() {
            for &k in ks {
                s.coverage[k.index()] += 1;
            }
        }
        s.value_desc.clear();
        s.value_desc.resize(n, u32::MAX);

        // Portfolio: best-of-three greedy orders, strictly-better wins (the
        // earliest strategy keeps ties) — exactly the one-shot policy.
        let mut best_width = usize::MAX;
        let mut have_best = false;
        let mut provably_optimal = false;
        for strategy in STRATEGIES {
            let killed_current = build_killing(ddg, s, strategy, max_repairs);
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

    /// Analyses every register type present in the DAG, ascending.
    pub fn analyze_all(&mut self, ddg: &Ddg) -> Vec<RsAnalysis> {
        ddg.reg_types()
            .into_iter()
            .map(|t| self.analyze(ddg, t))
            .collect()
    }

    /// Analyses a batch of DAGs with one shared scratch — the throughput
    /// path of the corpus driver and the `rs_throughput` benchmark.
    pub fn analyze_batch<'a, I>(&mut self, batch: I) -> Vec<RsAnalysis>
    where
        I: IntoIterator<Item = (&'a Ddg, RegType)>,
    {
        batch
            .into_iter()
            .map(|(ddg, t)| self.analyze(ddg, t))
            .collect()
    }

    /// Reduces `RS_t(ddg)` below `r` with default [`Reducer`] settings,
    /// measuring saturation through this engine. Identical outcome to
    /// `Reducer::new().reduce(..)` with the same heuristic parameters.
    pub fn reduce(&mut self, ddg: &mut Ddg, t: RegType, r: usize) -> ReduceOutcome {
        let reducer = Reducer {
            heuristic: self.params.clone(),
            ..Reducer::new()
        };
        self.reduce_with(&reducer, ddg, t, r)
    }

    /// Reduction with explicit [`Reducer`] settings (budgets, exact
    /// verification), estimator-backed by this engine's scratch.
    pub fn reduce_with(
        &mut self,
        reducer: &Reducer,
        ddg: &mut Ddg,
        t: RegType,
        r: usize,
    ) -> ReduceOutcome {
        let cancel = self.cancel.clone();
        let mut estimate = |d: &Ddg, t: RegType| {
            let a = self.analyze(d, t);
            (a.saturation, a.saturating_values)
        };
        reducer.reduce_with(ddg, t, r, &mut estimate, &cancel)
    }

    /// Runs a [`Pipeline`] through this engine (see `Pipeline::run_with`).
    pub fn run_pipeline(&mut self, pipeline: &Pipeline, ddg: &mut Ddg) -> PipelineReport {
        pipeline.run_with(self, ddg)
    }
}

/// Builds the greedy killing function for `strategy` into `s.killer`,
/// repairing enforcement-arc cycles against the topological order — the
/// scratch twin of the one-shot `GreedyK::build_killing`. Returns `true`
/// when `s.killed` already holds the killed graph of the returned killer
/// (the successful repair probe built it), so [`eval_current`] can skip an
/// identical rebuild of the dominant structure.
fn build_killing(
    ddg: &Ddg,
    s: &mut AnalysisScratch,
    strategy: Strategy,
    max_repairs: usize,
) -> bool {
    if matches!(strategy, Strategy::TopoMax) {
        s.killer.copy_from(&s.fallback);
        return false;
    }
    let AnalysisScratch {
        pos,
        tc,
        pk,
        is_value,
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
            *cell = tc.descendants(k).iter().filter(|&i| is_value[i]).count() as u32;
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
    for _ in 0..max_repairs {
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
/// says `s.killed` already holds it), derives the disjoint-value order, and
/// computes the maximum antichain into `s.antichain`. Returns `None` for an
/// invalid (cyclic) killing function.
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
    // `max_antichain_into` asks row by row (all `b` for one `a`), so the
    // killer of `a` is looked up once per row.
    let mut row: Option<(NodeId, NodeId)> = None;
    let rel = |a: NodeId, b: NodeId| {
        let ka = match row {
            Some((r, ka)) if r == a => ka,
            _ => {
                let ka = killer.of(a);
                row = Some((a, ka));
                ka
            }
        };
        killer_kills_before(ddg, &killed.lp, ka, b)
    };
    Some(max_antichain_into(values, rel, ac, antichain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::GreedyK;
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
    fn matches_one_shot_on_small_ddgs() {
        let mut engine = RsEngine::new();
        let greedy = GreedyK::new();
        for k in 1..6 {
            let d = fanout_chain_ddg(k);
            for t in [RegType::FLOAT, RegType::INT] {
                assert_same(&engine.analyze(&d, t), &greedy.saturation(&d, t));
            }
        }
    }

    #[test]
    fn scratch_survives_size_changes() {
        // big → small → big: stale scratch state must never leak through
        let mut engine = RsEngine::new();
        let greedy = GreedyK::new();
        for &k in &[7usize, 1, 5, 2, 7] {
            let d = fanout_chain_ddg(k);
            let a = engine.analyze(&d, RegType::FLOAT);
            assert_same(&a, &greedy.saturation(&d, RegType::FLOAT));
            assert_eq!(a.saturation, k);
        }
    }

    #[test]
    fn engine_reduce_matches_reducer() {
        for budget in [1usize, 2, 3] {
            let mut d1 = fanout_chain_ddg(4);
            let mut d2 = d1.clone();
            let classic = Reducer::new().reduce(&mut d1, RegType::FLOAT, budget);
            let engine = RsEngine::new().reduce(&mut d2, RegType::FLOAT, budget);
            assert_eq!(classic.fits(), engine.fits());
            assert_eq!(classic.added_arcs(), engine.added_arcs());
            assert_eq!(d1.graph().edge_count(), d2.graph().edge_count());
        }
    }

    #[test]
    fn batch_api_covers_types() {
        let mut engine = RsEngine::new();
        let mut b = DdgBuilder::new(Target::superscalar());
        b.op("i", OpClass::IntAlu, Some(RegType::INT));
        b.op("f", OpClass::FloatAlu, Some(RegType::FLOAT));
        let d = b.finish();
        let all = engine.analyze_all(&d);
        assert_eq!(all.len(), 2);
        let batch = engine.analyze_batch([(&d, RegType::INT), (&d, RegType::FLOAT)]);
        assert_eq!(batch[0].saturation, 1);
        assert_eq!(batch[1].saturation, 1);
    }
}

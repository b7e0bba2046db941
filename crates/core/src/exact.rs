//! Exact register saturation by combinatorial branch-and-bound over killing
//! functions.
//!
//! `RS_t(G) = max over valid killing functions k of width(DV_k)` (\[14\]).
//! The decision points are the values with more than one potential killer;
//! the search enumerates their choices with two prunings:
//!
//! - **Optimistic bound:** arcs of `DV_k` only ever *grow* when enforcement
//!   arcs are added, so the DV graph built from the arcs *forced under every
//!   remaining choice* (using the base graph's longest paths and only the
//!   already-fixed enforcement arcs) over-approximates every completion's
//!   antichain. If that optimistic width cannot beat the incumbent, the
//!   subtree is pruned.
//! - **Early exit:** the saturation can never exceed `|V_{R,t}|`; reaching
//!   it stops the search.
//!
//! A leaf evaluates its killing function exactly as Greedy-k evaluates a
//! candidate: [`KilledScratch::build`], then
//! [`KilledScratch::dv_antichain_into`], on storage each job owns.
//!
//! This solver is exact when it terminates within its node budget (flagged
//! in [`ExactRsResult::proven_optimal`]) and scales far beyond the intLP on
//! the experiment corpus, which is how the optimality study (T1) covers
//! hundreds of DAGs. The intLP of Section 3 ([`crate::ilp::RsIlp`])
//! cross-checks it on small instances.

use crate::killing::{killer_kills_before, FlatKilling, KilledScratch, KillingFunction};
use crate::model::{Ddg, RegType};
use crate::pkill::{potential_killers, PKill};
use rs_graph::antichain::{max_antichain_into, AntichainScratch};
use rs_graph::paths::LongestPaths;
use rs_graph::NodeId;
use rs_lp::{par_map, Cancel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Recursion steps between full (clock-reading) cancellation polls; the
/// cheap latched-flag check runs on every step.
const CANCEL_POLL_MASK: usize = 255;

/// Configuration of the exact search.
#[derive(Clone, Debug)]
pub struct ExactRs {
    /// Maximum number of complete killing functions evaluated (shared
    /// across all workers).
    pub node_limit: usize,
    /// Worker threads. The search tree is split at the root over the first
    /// ambiguous value's candidate killers; workers share the incumbent
    /// width through an atomic, so pruning stays as effective as in the
    /// sequential search. The computed saturation never depends on this
    /// value. The *witness* (killing function / antichain) among
    /// equally-wide optima can vary run-to-run when `threads > 1`: a job
    /// may be pruned by another job's concurrently published equal-width
    /// bound. Every returned witness is valid.
    pub threads: usize,
    /// Cooperative cancellation: a tripped token stops the search like an
    /// exhausted node budget — the incumbent (never worse than the greedy
    /// seed) is returned with `proven_optimal: false` and a valid
    /// [`ExactRsResult::upper_bound`]. The default token never trips.
    pub cancel: Cancel,
}

impl Default for ExactRs {
    fn default() -> Self {
        ExactRs {
            node_limit: 2_000_000,
            threads: 1,
            cancel: Cancel::new(),
        }
    }
}

/// Result of the exact computation.
#[derive(Clone, Debug)]
pub struct ExactRsResult {
    /// The register saturation (exact iff `proven_optimal`).
    pub saturation: usize,
    /// Values of a maximum antichain (simultaneously alive under some
    /// schedule).
    pub saturating_values: Vec<NodeId>,
    /// The optimal killing function found.
    pub killing: KillingFunction,
    /// Whether the search space was exhausted (or pruned exactly) within
    /// the node budget.
    pub proven_optimal: bool,
    /// A proven upper bound on the true saturation: equals `saturation`
    /// when `proven_optimal`, otherwise the root optimistic width — so
    /// `saturation ≤ RS_t(G) ≤ upper_bound` always holds, and an
    /// interrupted run still reports how far its answer can be off.
    pub upper_bound: usize,
    /// Number of complete killing functions evaluated.
    pub leaves_evaluated: usize,
    /// Number of pruned subtrees.
    pub pruned: usize,
}

impl ExactRs {
    /// Creates the solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExactRs {
            threads,
            ..Self::default()
        }
    }

    /// Computes `RS_t(G)` exactly (subject to the node budget).
    pub fn saturation(&self, ddg: &Ddg, t: RegType) -> ExactRsResult {
        let values = ddg.values(t);
        let lp = LongestPaths::new(ddg.graph());
        let pk = potential_killers(ddg, t, &lp);

        if values.is_empty() {
            return ExactRsResult {
                saturation: 0,
                saturating_values: Vec::new(),
                killing: KillingFunction {
                    reg_type: t,
                    killer: BTreeMap::new(),
                },
                proven_optimal: true,
                upper_bound: 0,
                leaves_evaluated: 0,
                pruned: 0,
            };
        }

        // Seed with the heuristic: a valid incumbent and often already
        // optimal, which makes pruning effective immediately.
        let seed = crate::heuristic::GreedyK::new().saturation(ddg, t);
        let seed_best = LocalBest {
            width: seed.saturation,
            killing: seed.killing.clone(),
            saturating: seed.saturating_values.clone(),
        };

        let ambiguous = pk.ambiguous_values();
        let base_assignment: BTreeMap<NodeId, NodeId> = pk
            .iter()
            .filter(|(_, ks)| ks.len() == 1)
            .map(|(u, ks)| (u, ks[0]))
            .collect();

        // Root optimistic bound: an upper bound on every completion, hence
        // on the true saturation — what an interrupted run reports as its
        // proven gap.
        let root_ub = optimistic_width(
            ddg,
            &lp,
            &pk,
            &values,
            &base_assignment,
            &mut AntichainScratch::new(),
            &mut Vec::new(),
        );

        // Shared search state: the incumbent width (pruning bound) and the
        // global leaf budget.
        let best_global = AtomicUsize::new(seed.saturation);
        let leaves = AtomicUsize::new(0);

        // The jobs: the whole tree, or — with more than one thread — the
        // root split, one job per candidate killer of the first ambiguous
        // value.
        let jobs: Vec<(usize, BTreeMap<NodeId, NodeId>)> = match ambiguous.first() {
            Some(&u0) if self.threads > 1 => pk
                .of(u0)
                .iter()
                .map(|&cand| {
                    let mut assignment = base_assignment.clone();
                    assignment.insert(u0, cand);
                    (1, assignment)
                })
                .collect(),
            _ => vec![(0, base_assignment)],
        };
        // Each job owns its search state and working storage.
        let job_results = par_map(
            &mut vec![(); self.threads.max(1)],
            jobs,
            |(), (depth, mut assignment)| {
                let mut search = Search {
                    ddg,
                    t,
                    pk: &pk,
                    values: &values,
                    ambiguous: &ambiguous,
                    base_lp: &lp,
                    node_limit: self.node_limit,
                    leaves: &leaves,
                    best_global: &best_global,
                    cancel: &self.cancel,
                    ticks: 0,
                    pruned: 0,
                    exhausted: true,
                    killing: FlatKilling::default(),
                    killed: KilledScratch::new(),
                    ac: AntichainScratch::new(),
                    antichain: Vec::new(),
                };
                let mut local = seed_best.clone();
                search.recurse(depth, &mut assignment, &mut local);
                (local, search.exhausted, search.pruned)
            },
        );

        // Deterministic merge: widest witness, ties by job order; the seed
        // stands if no job improved on it.
        let exhausted = job_results.iter().all(|&(_, e, _)| e);
        let pruned = job_results.iter().map(|&(_, _, p)| p).sum();
        let mut best = seed_best;
        for (local, _, _) in job_results {
            if local.width > best.width {
                best = local;
            }
        }
        ExactRsResult {
            upper_bound: if exhausted {
                best.width
            } else {
                root_ub.max(best.width)
            },
            saturation: best.width,
            saturating_values: best.saturating,
            killing: best.killing,
            proven_optimal: exhausted,
            leaves_evaluated: leaves.load(Ordering::Relaxed),
            pruned,
        }
    }
}

/// Per-job incumbent: the widest DV witness this job has proven.
#[derive(Clone)]
struct LocalBest {
    width: usize,
    killing: KillingFunction,
    saturating: Vec<NodeId>,
}

struct Search<'a> {
    ddg: &'a Ddg,
    t: RegType,
    pk: &'a PKill,
    values: &'a [NodeId],
    ambiguous: &'a [NodeId],
    base_lp: &'a LongestPaths,
    node_limit: usize,
    /// Leaves evaluated across ALL workers (shared budget).
    leaves: &'a AtomicUsize,
    /// Widest antichain proven by ANY worker — the shared pruning bound.
    /// Reading a stale (smaller) value only costs pruning power, never
    /// correctness.
    best_global: &'a AtomicUsize,
    cancel: &'a Cancel,
    /// Local recursion-step counter driving the amortized full poll.
    ticks: usize,
    pruned: usize,
    exhausted: bool,
    // Leaf evaluation and optimistic-bound storage, reused across steps.
    killing: FlatKilling,
    killed: KilledScratch,
    ac: AntichainScratch,
    antichain: Vec<NodeId>,
}

impl Search<'_> {
    fn recurse(
        &mut self,
        depth: usize,
        assignment: &mut BTreeMap<NodeId, NodeId>,
        local: &mut LocalBest,
    ) {
        if self.leaves.load(Ordering::Relaxed) >= self.node_limit {
            self.exhausted = false;
            return;
        }
        // Cheap latched-flag check every step; the clock-reading poll only
        // every CANCEL_POLL_MASK + 1 steps. Either way an interruption
        // surrenders the proof exactly like an exhausted budget.
        self.ticks += 1;
        if self.cancel.is_set() || (self.ticks & CANCEL_POLL_MASK == 0 && self.cancel.cancelled()) {
            self.exhausted = false;
            return;
        }
        let best = self.best_global.load(Ordering::Relaxed);
        if best == self.values.len() {
            return; // cannot do better
        }
        if depth == self.ambiguous.len() {
            self.leaves.fetch_add(1, Ordering::Relaxed);
            self.killing.reset(self.ddg.num_ops());
            for (&u, &ku) in assignment.iter() {
                self.killing.set(u, ku);
            }
            if self.killed.build(self.ddg, self.pk, &self.killing) {
                let width = self.killed.dv_antichain_into(
                    self.ddg,
                    &self.killing,
                    self.values,
                    &mut self.ac,
                    &mut self.antichain,
                );
                if width > local.width {
                    local.width = width;
                    local.killing = self.killing.to_killing_function(self.t, self.pk);
                    local.saturating.clone_from(&self.antichain);
                    self.best_global.fetch_max(width, Ordering::Relaxed);
                }
            }
            return;
        }

        // Optimistic bound: the DV order that holds for EVERY completion is
        // the one computed from the base longest paths with only fixed
        // choices' killers; enforcement arcs only lengthen paths, adding DV
        // arcs and shrinking antichains. Using the *base* lp under-counts DV
        // arcs, so the antichain is an upper bound.
        let ub = self.optimistic_width(assignment);
        if ub <= best.max(local.width) {
            self.pruned += 1;
            return;
        }

        let u = self.ambiguous[depth];
        for &cand in self.pk.of(u) {
            assignment.insert(u, cand);
            self.recurse(depth + 1, assignment, local);
        }
        assignment.remove(&u);
    }

    /// Upper bound: max antichain of the DV relation built from arcs that
    /// are certain regardless of the remaining choices — for assigned
    /// values, the usual criterion with the *base* lp (a subset of the
    /// extended graph's lp); for unassigned values, the intersection over
    /// all candidate killers.
    fn optimistic_width(&mut self, assignment: &BTreeMap<NodeId, NodeId>) -> usize {
        optimistic_width(
            self.ddg,
            self.base_lp,
            self.pk,
            self.values,
            assignment,
            &mut self.ac,
            &mut self.antichain,
        )
    }
}

/// See [`Search::optimistic_width`]; free-standing so the driver can also
/// compute the root bound before any search state exists.
fn optimistic_width(
    ddg: &Ddg,
    base_lp: &LongestPaths,
    pk: &PKill,
    values: &[NodeId],
    assignment: &BTreeMap<NodeId, NodeId>,
    ac: &mut AntichainScratch,
    antichain: &mut Vec<NodeId>,
) -> usize {
    let forced_before = |u: NodeId, w: NodeId| -> bool {
        let check = |ku: NodeId| -> bool { killer_kills_before(ddg, base_lp, ku, w) };
        match assignment.get(&u) {
            Some(&ku) => check(ku),
            None => pk.of(u).iter().all(|&ku| check(ku)),
        }
    };
    max_antichain_into(values, forced_before, ac, antichain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::GreedyK;
    use crate::model::{DdgBuilder, OpClass, Target};

    #[test]
    fn trivial_cases_match_heuristic() {
        let mut b = DdgBuilder::new(Target::superscalar());
        for i in 0..4 {
            b.op(format!("v{i}"), OpClass::IntAlu, Some(RegType::INT));
        }
        let d = b.finish();
        let ex = ExactRs::new().saturation(&d, RegType::INT);
        assert_eq!(ex.saturation, 4);
        assert!(ex.proven_optimal);
    }

    #[test]
    fn exact_at_least_heuristic() {
        // fan-in/fan-out structure with ambiguous killers
        let mut b = DdgBuilder::new(Target::superscalar());
        let v1 = b.op("v1", OpClass::Load, Some(RegType::INT));
        let v2 = b.op("v2", OpClass::Load, Some(RegType::INT));
        let a = b.op("a", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        let s = b.op("s", OpClass::Store, None);
        b.flow(v1, a, 4, RegType::INT);
        b.flow(v1, c, 4, RegType::INT);
        b.flow(v2, a, 4, RegType::INT);
        b.flow(v2, c, 4, RegType::INT);
        b.flow(a, s, 1, RegType::INT);
        b.flow(c, s, 1, RegType::INT);
        let d = b.finish();
        let h = GreedyK::new().saturation(&d, RegType::INT);
        let ex = ExactRs::new().saturation(&d, RegType::INT);
        assert!(ex.proven_optimal);
        assert!(ex.saturation >= h.saturation);
        // v1 and v2 die exactly when the later of {a, c} defines its value
        // (half-open lifetimes), so at most {v1, v2, first-of-a/c} coexist:
        // RS = 3.
        assert_eq!(ex.saturation, 3);
    }

    #[test]
    fn exact_killing_is_valid() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::Load, Some(RegType::INT));
        let c1 = b.op("c1", OpClass::IntAlu, Some(RegType::INT));
        let c2 = b.op("c2", OpClass::IntAlu, Some(RegType::INT));
        b.flow(v, c1, 4, RegType::INT);
        b.flow(v, c2, 4, RegType::INT);
        let d = b.finish();
        let ex = ExactRs::new().saturation(&d, RegType::INT);
        let lp = rs_graph::paths::LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        assert!(ex.killing.respects(&pk));
        assert!(ex.proven_optimal);
        // v dies exactly when the later of {c1, c2} defines: RS = 2.
        assert_eq!(ex.saturation, 2);
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        let mut b = DdgBuilder::new(Target::superscalar());
        // many values with two killers each -> big search space
        let mut stores = Vec::new();
        for i in 0..3 {
            stores.push(b.op(format!("s{i}"), OpClass::Store, None));
        }
        for i in 0..6 {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::INT));
            b.flow(v, stores[i % 3], 4, RegType::INT);
            b.flow(v, stores[(i + 1) % 3], 4, RegType::INT);
        }
        let d = b.finish();
        let limited = ExactRs {
            node_limit: 1,
            ..ExactRs::default()
        }
        .saturation(&d, RegType::INT);
        let full = ExactRs::new().saturation(&d, RegType::INT);
        assert!(full.proven_optimal);
        assert_eq!(full.upper_bound, full.saturation);
        assert!(limited.saturation <= full.saturation);
        // even budget-limited results are achievable lower bounds
        assert!(limited.saturation >= 1);
        // ...and the reported gap brackets the true saturation
        assert!(limited.upper_bound >= full.saturation);
    }

    #[test]
    fn cancelled_search_degrades_with_valid_bounds() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let mut stores = Vec::new();
        for i in 0..3 {
            stores.push(b.op(format!("s{i}"), OpClass::Store, None));
        }
        for i in 0..6 {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::INT));
            b.flow(v, stores[i % 3], 4, RegType::INT);
            b.flow(v, stores[(i + 1) % 3], 4, RegType::INT);
        }
        let d = b.finish();
        let full = ExactRs::new().saturation(&d, RegType::INT);
        assert!(full.proven_optimal);

        // Pre-tripped token: the search stops at its first step, degrading
        // to the greedy seed with the proof surrendered — never an error.
        let cancel = rs_lp::Cancel::new();
        cancel.cancel();
        let cut = ExactRs {
            cancel,
            ..ExactRs::default()
        }
        .saturation(&d, RegType::INT);
        assert!(!cut.proven_optimal);
        assert!(cut.saturation >= 1, "greedy seed survives cancellation");
        assert!(cut.saturation <= full.saturation);
        assert!(cut.upper_bound >= full.saturation);

        // Deterministic mid-search trips at various depths: bounds must
        // bracket the true answer no matter where the search stopped.
        for polls in [1, 4, 64] {
            let cut = ExactRs {
                cancel: rs_lp::Cancel::after_polls(polls),
                ..ExactRs::default()
            }
            .saturation(&d, RegType::INT);
            assert!(cut.saturation <= full.saturation, "polls={polls}");
            assert!(cut.upper_bound >= full.saturation, "polls={polls}");
        }
    }

    #[test]
    fn thread_count_does_not_change_saturation() {
        // The same ambiguous-killer structure as the budget test: a search
        // tree wide enough that the root split actually distributes work.
        let mut b = DdgBuilder::new(Target::superscalar());
        let mut stores = Vec::new();
        for i in 0..4 {
            stores.push(b.op(format!("s{i}"), OpClass::Store, None));
        }
        for i in 0..8 {
            let v = b.op(format!("v{i}"), OpClass::Load, Some(RegType::INT));
            b.flow(v, stores[i % 4], 4, RegType::INT);
            b.flow(v, stores[(i + 1) % 4], 4, RegType::INT);
        }
        let d = b.finish();
        let seq = ExactRs::new().saturation(&d, RegType::INT);
        assert!(seq.proven_optimal);
        for threads in [2, 4] {
            let par = ExactRs::with_threads(threads).saturation(&d, RegType::INT);
            assert!(par.proven_optimal);
            assert_eq!(par.saturation, seq.saturation, "threads={threads}");
            // the parallel witness is still a valid killing function
            let lp = rs_graph::paths::LongestPaths::new(d.graph());
            let pk = potential_killers(&d, RegType::INT, &lp);
            assert!(par.killing.respects(&pk));
        }
    }
}

//! The paper's integer linear programs.
//!
//! - [`RsIlp`]: Section 3 — exact register saturation. `O(n²)` integer
//!   variables and `O(m + n²)` constraints (asserted by tests and measured
//!   by experiment T3).
//! - [`ReduceIlp`]: Section 4 — optimal saturation reduction: a schedule
//!   maximising register use *within* `R` registers (interference-graph
//!   coloring with `R` colors) under minimal total schedule time, followed
//!   by the Theorem-4.2 serialization arcs.
//!
//! ## Variable cast (Section 3)
//!
//! | variable | kind | meaning |
//! |---|---|---|
//! | `σ_u`   | integer in `[asap(u), alap(u, T)]` | issue date (`T = Σ_e δ(e)`) |
//! | `k_u`   | integer (via `max` linearization) | killing date of value `u` |
//! | `s_{u,v}` | binary | lifetimes of `u` and `v` interfere |
//! | `x_u`   | binary | `u` belongs to the chosen independent set of the complement interference graph |
//!
//! ## Encodings
//!
//! `s = 1 ⟹ (k_u > def_v ∧ k_v > def_u)` is the only direction needed to
//! *maximize* `Σ x_u` exactly: raising `s` is pure profit for the solver, so
//! at the optimum `s_{u,v} = 1` exactly on the schedulable interferences.
//! The paper's full `⟺` (needed for the *reduction* intLP, where `s = 0`
//! must be justified) is available via [`RsIlp::full_iff`] and is always
//! used by [`ReduceIlp`].

use crate::lifetime;
use crate::model::{Ddg, RegType, TargetKind};
use crate::pkill::never_simultaneously_alive;
use rs_graph::paths::{alap, asap, LongestPaths};
use rs_graph::{topo, NodeId};
use rs_lp::linearize::{iff_conjunction_ge, indicator_ge, max_of};
use rs_lp::{
    Cmp, LinExpr, MilpConfig, MilpError, MilpStats, Model, ModelStats, Sense, VarId, VarKind,
};
use std::collections::BTreeMap;

/// Interference variable of a value pair.
#[derive(Clone, Copy, Debug)]
pub enum PairVar {
    /// A genuine binary decision.
    Var(VarId),
    /// Pre-filtered: the pair can never interfere (Section 3 optimization).
    Never,
}

/// Variable handles of a built saturation model.
#[derive(Clone, Debug)]
pub struct RsIlpVars {
    /// `σ_u` per node.
    pub sigma: Vec<VarId>,
    /// `k_u` per value.
    pub kill: BTreeMap<NodeId, VarId>,
    /// `s_{u,v}` per unordered value pair (`u < v`).
    pub pair: BTreeMap<(NodeId, NodeId), PairVar>,
    /// `x_u` per value.
    pub x: BTreeMap<NodeId, VarId>,
}

/// Section-3 exact register saturation via integer programming.
#[derive(Clone, Debug)]
pub struct RsIlp {
    /// Use the full `⟺` interference encoding (paper-faithful; strictly
    /// larger model). The default one-directional encoding is exact for the
    /// maximization objective.
    pub full_iff: bool,
    /// Apply the Section-3 pair pre-filter (`never simultaneously alive`).
    pub prefilter_pairs: bool,
    /// Branch-and-bound budget, worker threads and tolerance (see
    /// [`MilpConfig`]).
    pub milp: MilpConfig,
}

impl Default for RsIlp {
    fn default() -> Self {
        RsIlp {
            full_iff: false,
            prefilter_pairs: true,
            milp: MilpConfig::default(),
        }
    }
}

/// Result of the Section-3 intLP.
#[derive(Clone, Debug)]
pub struct RsIlpResult {
    /// The register saturation `RS_t(G)`.
    pub saturation: usize,
    /// A witness schedule achieving it.
    pub schedule: Vec<i64>,
    /// The saturating values (chosen independent set).
    pub saturating_values: Vec<NodeId>,
    /// Model size (for the complexity table).
    pub model_stats: ModelStats,
    /// Branch-and-bound solve statistics (nodes, LP solves, incremental
    /// dive-tableau re-solves, pseudocost branching counters, pivots,
    /// relaxation tableau shape) — surfaced by
    /// `rsat analyze --ilp --stats`.
    pub milp_stats: MilpStats,
    /// True iff branch-and-bound proved optimality within budget.
    pub proven_optimal: bool,
    /// A proven upper bound on the true saturation, derived from the
    /// branch-and-bound dual bound: equals `saturation` when
    /// `proven_optimal`, otherwise `saturation ≤ RS_t(G) ≤ upper_bound`.
    /// Clamped to `|V_{R,t}|` (always a valid bound) when the search was
    /// interrupted before producing a finite dual bound.
    pub upper_bound: usize,
}

impl RsIlp {
    /// Creates the solver with the default (fast, exact) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with `threads` branch-and-bound workers.
    /// The computed saturation does not depend on the thread count.
    pub fn with_threads(threads: usize) -> Self {
        RsIlp {
            milp: MilpConfig::with_threads(threads),
            ..Self::default()
        }
    }

    /// Builds the Section-3 model without solving it.
    pub fn build_model(&self, ddg: &Ddg, t: RegType) -> (Model, RsIlpVars) {
        let (mut m, vars) = self.build_cast(ddg, t, ddg.horizon());

        // Independent-set constraints:
        // s_{u,v} = 0 ⟹ x_u + x_v ≤ 1, linearly: x_u + x_v ≤ 1 + s_{u,v}.
        for (&(u, v), &pv) in &vars.pair {
            let lhs = LinExpr::from(vars.x[&u]) + vars.x[&v];
            match pv {
                PairVar::Never => m.add_constraint(lhs, Cmp::Le, 1.0),
                PairVar::Var(s) => m.add_constraint(lhs - s, Cmp::Le, 1.0),
            }
        }

        // Objective: maximize Σ x_u.
        let mut obj = LinExpr::new();
        for u in ddg.values(t) {
            obj = obj + vars.x[&u];
        }
        m.set_objective(obj);
        (m, vars)
    }

    /// The variable cast both intLPs share: `σ_u` with its precedence
    /// rows, `k_u`, `s_{u,v}` with its interference rows, and the `x_u`
    /// columns — but no independent-set row and no objective. `σ_u` ranges
    /// over `[asap, alap(horizon)]`: the paper's `T = Σ_e δ(e)` for
    /// [`RsIlp`], the escalating horizon for [`ReduceIlp`].
    fn build_cast(&self, ddg: &Ddg, t: RegType, horizon: i64) -> (Model, RsIlpVars) {
        let n = ddg.num_ops();
        let asap_v = asap(ddg.graph());
        let alap_v = alap(ddg.graph(), horizon);

        let mut m = Model::new(Sense::Maximize);

        // σ_u with the paper's domain [asap, alap(T)].
        let sigma: Vec<VarId> = (0..n)
            .map(|i| {
                m.add_named_var(
                    format!("sigma_{i}"),
                    VarKind::Integer,
                    asap_v[i] as f64,
                    alap_v[i].max(asap_v[i]) as f64,
                )
            })
            .collect();

        // Precedence constraints.
        for e in ddg.graph().edge_ids() {
            let u = ddg.graph().src(e);
            let v = ddg.graph().dst(e);
            let lat = ddg.graph().latency(e);
            m.add_constraint(
                LinExpr::from(sigma[v.index()]) - sigma[u.index()],
                Cmp::Ge,
                lat as f64,
            );
        }

        // Killing dates via the max linearization.
        let values = ddg.values(t);
        let mut kill = BTreeMap::new();
        for &u in &values {
            let terms: Vec<LinExpr> = ddg
                .consumers(u, t)
                .iter()
                .map(|&v| LinExpr::from(sigma[v.index()]) + ddg.delta_r(v) as f64)
                .collect();
            let k = max_of(&mut m, &format!("kill_{}", u.index()), &terms);
            kill.insert(u, k);
        }

        // Interference binaries per unordered pair.
        let lp = LongestPaths::new(ddg.graph());
        let mut pair = BTreeMap::new();
        for (i, &u) in values.iter().enumerate() {
            for &v in &values[i + 1..] {
                if self.prefilter_pairs && never_simultaneously_alive(ddg, t, &lp, u, v) {
                    pair.insert((u, v), PairVar::Never);
                    continue;
                }
                let s = m.add_named_var(
                    format!("s_{}_{}", u.index(), v.index()),
                    VarKind::Binary,
                    0.0,
                    1.0,
                );
                // s = 1 ⟹ k_u ≥ σ_v + δw(v) + 1  ∧  k_v ≥ σ_u + δw(u) + 1
                let cond_u = LinExpr::from(kill[&u]) - sigma[v.index()];
                let cond_v = LinExpr::from(kill[&v]) - sigma[u.index()];
                let rhs_u = (ddg.delta_w(v) + 1) as f64;
                let rhs_v = (ddg.delta_w(u) + 1) as f64;
                if self.full_iff {
                    iff_conjunction_ge(
                        &mut m,
                        &format!("iff_{}_{}", u.index(), v.index()),
                        s,
                        &[(cond_u, rhs_u), (cond_v, rhs_v)],
                        1.0,
                    );
                } else {
                    indicator_ge(&mut m, s, &cond_u, rhs_u);
                    indicator_ge(&mut m, s, &cond_v, rhs_v);
                }
                pair.insert((u, v), PairVar::Var(s));
            }
        }

        // Independent-set variables.
        let mut x = BTreeMap::new();
        for &u in &values {
            x.insert(
                u,
                m.add_named_var(format!("x_{}", u.index()), VarKind::Binary, 0.0, 1.0),
            );
        }

        (
            m,
            RsIlpVars {
                sigma,
                kill,
                pair,
                x,
            },
        )
    }

    /// Solves for `RS_t(G)`.
    pub fn saturation(&self, ddg: &Ddg, t: RegType) -> Result<RsIlpResult, MilpError> {
        let values = ddg.values(t);
        if values.is_empty() {
            return Ok(RsIlpResult {
                saturation: 0,
                schedule: lifetime::asap_schedule(ddg),
                saturating_values: Vec::new(),
                model_stats: ModelStats::default(),
                milp_stats: MilpStats::default(),
                proven_optimal: true,
                upper_bound: 0,
            });
        }
        let (model, vars) = self.build_model(ddg, t);
        let stats = model.stats();
        let sol = rs_lp::solve(&model, &self.milp)?;
        let schedule: Vec<i64> = vars
            .sigma
            .iter()
            .map(|&v| sol.values[v.index()].round() as i64)
            .collect();
        let saturating: Vec<NodeId> = vars
            .x
            .iter()
            .filter(|(_, &xv)| sol.values[xv.index()].round() as i64 == 1)
            .map(|(&u, _)| u)
            .collect();
        if !lifetime::is_valid_schedule(ddg, &schedule) {
            // A rounded optimum violating precedence means numerical
            // breakdown upstream; surface it as a typed error instead of
            // returning a bogus saturation certificate.
            return Err(MilpError::Numerical);
        }
        let saturation = sol.objective.round() as usize;
        let upper_bound = if sol.stats.proven_optimal {
            saturation
        } else {
            // The MILP dual bound is in objective space (= saturation for
            // this maximize model). |values| is always valid, so clamp a
            // non-finite or out-of-range bound to it.
            let db = sol.stats.dual_bound;
            if db.is_finite() && db < values.len() as f64 {
                (db + 1e-6).floor().max(saturation as f64) as usize
            } else {
                values.len()
            }
        };
        Ok(RsIlpResult {
            saturation,
            schedule,
            saturating_values: saturating,
            model_stats: stats,
            milp_stats: sol.stats,
            proven_optimal: sol.stats.proven_optimal,
            upper_bound,
        })
    }
}

/// Section-4 exact register-saturation reduction.
#[derive(Clone, Debug)]
pub struct ReduceIlp {
    /// Schedule horizon strategy: start at `2·CP + 8` and double towards
    /// the paper's `T = Σ δ(e)` until feasible (each smaller horizon is a
    /// restriction; a feasible minimal-makespan solution inside a horizon
    /// is globally optimal because the objective is the makespan itself).
    pub escalate_horizon: bool,
    /// Branch-and-bound budget (per horizon attempt).
    pub milp: MilpConfig,
}

impl Default for ReduceIlp {
    fn default() -> Self {
        ReduceIlp {
            escalate_horizon: true,
            milp: MilpConfig::default(),
        }
    }
}

/// Result of the exact reduction.
#[derive(Clone, Debug)]
pub struct ReduceIlpResult {
    /// The witness schedule found by the intLP.
    pub schedule: Vec<i64>,
    /// Register index assigned to each value by the coloring.
    pub registers: BTreeMap<NodeId, usize>,
    /// Serialization arcs added to the DDG (src, dst, latency).
    pub added_arcs: Vec<(NodeId, NodeId, i64)>,
    /// Critical path after reduction.
    pub cp_after: i64,
    /// Total schedule time `σ(⊥)` of the witness (the minimized objective).
    pub makespan: i64,
    /// True iff the MILP proved optimality and the serialization arcs
    /// needed no cycle repair.
    pub proven_optimal: bool,
    /// True iff cycle repair had to drop arcs and re-verify (see module
    /// docs); the reduction is still sound but may not be arc-minimal.
    pub repaired: bool,
}

/// Why the exact reduction failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceIlpError {
    /// No schedule within the horizon needs ≤ R registers: spilling is
    /// unavoidable (Section 4's terminal case).
    SpillUnavoidable,
    /// The MILP budget ran out.
    Budget,
    /// The pre-solve static audit rejected the generated model — a
    /// formulation bug, never a property of the input DDG.
    Rejected(rs_lp::AuditError),
}

impl std::fmt::Display for ReduceIlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceIlpError::SpillUnavoidable => {
                write!(
                    f,
                    "register saturation cannot be reduced: spill code is unavoidable"
                )
            }
            ReduceIlpError::Budget => write!(f, "MILP budget exhausted"),
            ReduceIlpError::Rejected(e) => write!(f, "reduction model rejected by audit: {e}"),
        }
    }
}

impl std::error::Error for ReduceIlpError {}

impl ReduceIlp {
    /// Creates the solver with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with `threads` branch-and-bound workers.
    pub fn with_threads(threads: usize) -> Self {
        ReduceIlp {
            milp: MilpConfig::with_threads(threads),
            ..Self::default()
        }
    }

    /// Builds the Section-4 model for register budget `r`.
    pub fn build_model(
        &self,
        ddg: &Ddg,
        t: RegType,
        r: usize,
        horizon: i64,
    ) -> (Model, RsIlpVars, BTreeMap<(NodeId, usize), VarId>) {
        // Reuse the Section-3 variable cast with the full ⟺ encoding (both
        // directions are load-bearing here: a zero `s` licenses register
        // sharing, so it must imply real lifetime disjointness).
        let rs = RsIlp {
            full_iff: true,
            ..RsIlp::default()
        };
        let (mut m, vars) = rs.build_cast(ddg, t, horizon);

        // No independent set here: the x_u columns stay, fixed at 0, so
        // the column order matches the Section-3 model's, but none of
        // their rows is emitted.
        for &xv in vars.x.values() {
            m.set_bounds(xv, 0.0, 0.0);
        }

        // Register assignment binaries.
        let values = ddg.values(t);
        let mut assign = BTreeMap::new();
        for &u in &values {
            let mut sum = LinExpr::new();
            for i in 0..r {
                let v = m.add_named_var(
                    format!("reg_{}_{}", u.index(), i),
                    VarKind::Binary,
                    0.0,
                    1.0,
                );
                assign.insert((u, i), v);
                sum = sum + v;
            }
            m.add_constraint(sum, Cmp::Eq, 1.0);
        }
        // Interfering values cannot share a register:
        // s_{u,v} = 1 ⟹ x^i_u + x^i_v ≤ 1, i.e. x^i_u + x^i_v + s ≤ 2.
        for (&(u, v), &pv) in &vars.pair {
            if let PairVar::Var(s) = pv {
                for i in 0..r {
                    let lhs = LinExpr::from(assign[&(u, i)]) + assign[&(v, i)] + s;
                    m.add_constraint(lhs, Cmp::Le, 2.0);
                }
            }
        }

        // Objective: minimize the total schedule time σ(⊥). The base model
        // was built with Maximize, so negate.
        m.set_objective(-LinExpr::from(vars.sigma[ddg.bottom().index()]));
        (m, vars, assign)
    }

    /// Reduces `RS_t` of `ddg` below `r` by solving the Section-4 intLP and
    /// adding the Theorem-4.2 serialization arcs **in place**.
    pub fn reduce(
        &self,
        ddg: &mut Ddg,
        t: RegType,
        r: usize,
    ) -> Result<ReduceIlpResult, ReduceIlpError> {
        assert!(r >= 1, "register budget must be positive");
        let t_full = ddg.horizon();
        let mut horizon = if self.escalate_horizon {
            (2 * ddg.critical_path() + 8).min(t_full)
        } else {
            t_full
        };
        loop {
            let (model, vars, assign) = self.build_model(ddg, t, r, horizon);
            match rs_lp::solve(&model, &self.milp) {
                Ok(sol) => {
                    let schedule: Vec<i64> = vars
                        .sigma
                        .iter()
                        .map(|&v| sol.values[v.index()].round() as i64)
                        .collect();
                    let registers: BTreeMap<NodeId, usize> = assign
                        .iter()
                        .filter(|(_, &v)| sol.values[v.index()].round() as i64 == 1)
                        .map(|(&(u, i), _)| (u, i))
                        .collect();
                    let makespan = schedule[ddg.bottom().index()];
                    let (added, repaired) = add_serialization_arcs(ddg, t, &schedule, r);
                    return Ok(ReduceIlpResult {
                        schedule,
                        registers,
                        added_arcs: added,
                        cp_after: ddg.critical_path(),
                        makespan,
                        proven_optimal: sol.stats.proven_optimal && !repaired,
                        repaired,
                    });
                }
                Err(MilpError::Infeasible) if horizon < t_full => {
                    horizon = (horizon * 2).min(t_full);
                }
                Err(MilpError::Infeasible) => return Err(ReduceIlpError::SpillUnavoidable),
                Err(MilpError::Unbounded) => unreachable!("bounded domains"),
                Err(MilpError::BudgetExhausted) | Err(MilpError::Numerical) => {
                    return Err(ReduceIlpError::Budget)
                }
                Err(MilpError::Audit(e)) => return Err(ReduceIlpError::Rejected(e)),
            }
        }
    }
}

/// Adds the Theorem-4.2 serialization arcs for the lifetime order of
/// `schedule`, skipping arcs the graph already implies, and repairing any
/// introduced circuits by dropping offending arcs (followed by an RS
/// re-verification against `r`).
///
/// Returns the added arcs and whether repair was needed.
pub fn add_serialization_arcs(
    ddg: &mut Ddg,
    t: RegType,
    schedule: &[i64],
    r: usize,
) -> (Vec<(NodeId, NodeId, i64)>, bool) {
    let values = ddg.values(t);
    let lp = LongestPaths::new(ddg.graph());
    let sequential = matches!(ddg.target().kind, TargetKind::Superscalar);

    let mut added: Vec<(NodeId, NodeId, i64)> = Vec::new();
    let mut edge_ids = Vec::new();
    for &u in &values {
        let kill_u = lifetime::killing_date(ddg, t, schedule, u);
        let cons_u = ddg.consumers(u, t);
        for &v in &values {
            if u == v {
                continue;
            }
            let def_v = lifetime::definition_date(ddg, schedule, v);
            if kill_u > def_v {
                continue; // not ordered u ≺ v under σ
            }
            for &reader in &cons_u {
                if reader == v {
                    continue; // the proof excludes v itself
                }
                // Latency: sequential semantics uses 1 when the reader is
                // strictly before v in σ (paper's superscalar case);
                // otherwise the offset formula δr(u') − δw(v).
                let offset = ddg.delta_r(reader) - ddg.delta_w(v);
                let lat = if sequential && schedule[v.index()] > schedule[reader.index()] {
                    offset.max(1)
                } else {
                    offset
                };
                // Skip arcs already implied.
                if matches!(lp.lp(reader, v), Some(d) if d >= lat) {
                    continue;
                }
                let e = ddg.add_serial(reader, v, lat);
                edge_ids.push(e);
                added.push((reader, v, lat));
            }
        }
    }

    // Circuit elimination (Section 4's VLIW caveat, handled lazily): drop
    // added arcs on cycles until acyclic.
    let mut repaired = false;
    while !ddg.is_acyclic() {
        repaired = true;
        let cyc = topo::cycle_witness(ddg.graph()).expect("cyclic graph has a witness");
        // find an added arc on the cycle
        let mut dropped = false;
        for w in 0..cyc.len() {
            let a = cyc[w];
            let b = cyc[(w + 1) % cyc.len()];
            if let Some(pos) = added.iter().position(|&(s, d, _)| s == a && d == b) {
                ddg.remove_edge(edge_ids[pos]);
                edge_ids.remove(pos);
                added.remove(pos);
                dropped = true;
                break;
            }
        }
        assert!(
            dropped,
            "cycle contains no added arc — the original DDG was cyclic?"
        );
    }
    if repaired {
        // The dropped enforcement may have raised RS again; callers treat
        // `repaired` results as sound-but-possibly-suboptimal. Verify and,
        // if needed, let the heuristic reducer finish the job.
        let rs_now = crate::heuristic::GreedyK::new().saturation(ddg, t);
        if rs_now.saturation > r {
            let _ = crate::reduce::Reducer::default().reduce(ddg, t, r);
        }
    }
    (added, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactRs;
    use crate::model::{DdgBuilder, OpClass, Target};

    fn two_loads() -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(l1, add, 4, RegType::FLOAT);
        b.flow(l2, add, 4, RegType::FLOAT);
        b.flow(add, st, 3, RegType::FLOAT);
        b.finish()
    }

    #[test]
    fn rs_ilp_matches_enumeration_small() {
        let d = two_loads();
        let ilp = RsIlp::new().saturation(&d, RegType::FLOAT).unwrap();
        let en = ExactRs::new().saturation(&d, RegType::FLOAT);
        assert!(ilp.proven_optimal && en.proven_optimal);
        assert_eq!(ilp.saturation, en.saturation);
        assert_eq!(ilp.saturation, 2);
        // witness schedule really needs that many registers
        let rn = lifetime::register_need(&d, RegType::FLOAT, &ilp.schedule);
        assert_eq!(rn, ilp.saturation);
    }

    #[test]
    fn rs_ilp_full_iff_agrees() {
        let d = two_loads();
        let fast = RsIlp::new().saturation(&d, RegType::FLOAT).unwrap();
        let full = RsIlp {
            full_iff: true,
            ..RsIlp::new()
        }
        .saturation(&d, RegType::FLOAT)
        .unwrap();
        assert_eq!(fast.saturation, full.saturation);
    }

    #[test]
    fn rs_ilp_size_bounds() {
        // O(n²) integral variables, O(m + n²) constraints (paper claim).
        let d = two_loads();
        let (model, _) = RsIlp::new().build_model(&d, RegType::FLOAT);
        let st = model.stats();
        let n = d.num_ops();
        let m_edges = d.graph().edge_count();
        assert!(
            st.variables() <= 8 * n * n,
            "vars {} vs n² {}",
            st.variables(),
            n * n
        );
        assert!(
            st.constraints <= m_edges + 12 * n * n,
            "constraints {} vs m + n² = {}",
            st.constraints,
            m_edges + n * n
        );
    }

    #[test]
    fn reduce_ilp_brings_saturation_down() {
        // Two independent def-use chains: RS = 2, reducible to 1 by
        // serializing one lifetime after the other.
        let mut b = DdgBuilder::new(Target::superscalar());
        let v1 = b.op("v1", OpClass::IntAlu, Some(RegType::INT));
        let s1 = b.op("s1", OpClass::Store, None);
        let v2 = b.op("v2", OpClass::IntAlu, Some(RegType::INT));
        let s2 = b.op("s2", OpClass::Store, None);
        b.flow(v1, s1, 1, RegType::INT);
        b.flow(v2, s2, 1, RegType::INT);
        let mut d = b.finish();
        assert_eq!(ExactRs::new().saturation(&d, RegType::INT).saturation, 2);

        let res = ReduceIlp::new().reduce(&mut d, RegType::INT, 1).unwrap();
        assert!(d.is_acyclic());
        let after = ExactRs::new().saturation(&d, RegType::INT);
        assert!(after.proven_optimal);
        assert!(
            after.saturation <= 1,
            "RS after reduction = {}",
            after.saturation
        );
        assert!(!res.added_arcs.is_empty());
        // the witness schedule colors within 1 register
        assert!(res.registers.values().all(|&i| i < 1));
    }

    #[test]
    fn reduce_ilp_noop_when_budget_met() {
        let mut d = two_loads();
        let res = ReduceIlp::new().reduce(&mut d, RegType::FLOAT, 2).unwrap();
        // RS = 2 ≤ 2: the intLP may still add arcs consistent with its
        // witness, but the saturation must remain within budget and the
        // critical path must not grow beyond the witness makespan.
        let after = ExactRs::new().saturation(&d, RegType::FLOAT);
        assert!(after.saturation <= 2);
        assert!(res.cp_after <= res.makespan);
    }

    #[test]
    fn reduce_ilp_infeasible_reports_spill() {
        // Three values all forced simultaneously alive: budget 1 cannot work.
        let mut b = DdgBuilder::new(Target::superscalar());
        let v1 = b.op("v1", OpClass::Load, Some(RegType::FLOAT));
        let v2 = b.op("v2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(v1, add, 4, RegType::FLOAT);
        b.flow(v2, add, 4, RegType::FLOAT);
        b.flow(add, st, 3, RegType::FLOAT);
        let mut d = b.finish();
        // v1, v2 both read by add: both live until the add — 1 register is
        // impossible.
        let err = ReduceIlp::new()
            .reduce(&mut d, RegType::FLOAT, 1)
            .unwrap_err();
        assert_eq!(err, ReduceIlpError::SpillUnavoidable);
    }
}

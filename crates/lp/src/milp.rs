//! Deterministic round-based branch-and-bound MILP solver on top of the
//! bounded-variable simplex relaxation.
//!
//! The search is organized as **bulk-synchronous rounds** over a
//! deterministic frontier (`pool::Frontier`): each round pops a
//! fixed-size batch of open nodes (`BATCH`, independent of the thread
//! count), processes every node of the batch against *frozen* round-start
//! state — incumbent score, pseudocost store — and then commits the
//! results sequentially in batch order. Worker threads only parallelize
//! the processing step ([`crate::par_map`], one scratch model per worker);
//! they never touch shared mutable state. Node
//! identity is the **branch path** from the root (see `crate::pool`), so
//! pop order, node counts, branching decisions, incumbents, and the
//! explored-node sequence are identical at any [`MilpConfig::threads`]
//! value; [`MilpStats::trace_digest`] content-hashes the committed node
//! sequence to pin that invariant.
//!
//! Because rounds commit atomically (an interrupted round is pushed back
//! whole), the committed prefix of an interrupted search is always exactly
//! the prefix of the uninterrupted search, and the open frontier still
//! covers every node the search has not committed: an interrupted solve
//! returns its incumbent with a dual bound that brackets the optimum. Its
//! search state is then dropped; solving again starts from the root.
//!
//! ## Cold nodes, incremental dives
//!
//! Node relaxations are solved **cold** on purpose: a warm re-solve from
//! the parent basis returns the same objective, but lands on a
//! minimally-repaired vertex whose fractional pattern systematically
//! misleads fractionality-guided branching (measured 100-1000x tree
//! blowups on the register-saturation corpus). On the bounded path the
//! cold node tableau is kept live as a [`crate::simplex::DiveTableau`],
//! which serves two consumers:
//!
//! - the **diving primal heuristic**: nodes whose global index falls on
//!   the dive period dive from their subproblem, fixing near-integral
//!   variables in batches. Every dive step is an in-place bound fold plus
//!   dual repair on the live tableau. The incumbents those dives find are
//!   what turn the near-flat big-M dual bounds into actual pruning.
//! - **strong-branching-lite probes** for pseudocost initialization (see
//!   below), which clone the tableau (one memcpy ≈ one pivot) and tighten
//!   the probe bound on the copy.
//!
//! ## Work the search already holds is not redone
//!
//! Redoing any of the following would reproduce the same bits, so
//! skipping it leaves the trees byte-identical:
//!
//! - **Primed pricing weights.** Before a node's first strong-branching
//!   probe, its dive tableau computes its dual steepest-edge weights
//!   (`DiveTableau::prime_dse`). Every probe copy and the scheduled dive
//!   inherit them instead of each repeating the full-tableau scan; bound
//!   folds touch only the rhs column, which the weights exclude.
//! - **One root relaxation.** The root cut loop's first optimal tableau,
//!   of the pre-cut model, seeds the root dive, and the tableau of the
//!   committed cut-loop model serves the depth-0 node — after an exact
//!   check that the node's rounded box and row count match it bit for bit
//!   (otherwise the node cold-solves).
//! - **Snapshot allocations.** Probe scratch and dive snapshots are
//!   refilled by `clone_from`, which reuses the tableau's buffers instead
//!   of reallocating them.
//!
//! [`MilpStats::lp_solves`] and [`MilpStats::pivots`] count the work
//! actually done, so reused solves are not charged twice.
//!
//! ## Pseudocost branching
//!
//! Branching is guided by **pseudocosts**: per-variable estimates of the
//! objective degradation per unit of fractional distance, learned from
//! every child relaxation the search solves. During a round each worker
//! reads a frozen snapshot of the store overlaid with its own node's
//! observations; the observations are replayed into the shared store in
//! batch order at commit time, so the estimates — and the branching they
//! steer — are thread-count invariant. Variables without reliable
//! estimates are initialized by strong-branching-lite probes on the node's
//! dive tableau (bounded per node); the score is the classic product rule
//! `max(down·f⁻, ε) · max(up·f⁺, ε)`. The reference path
//! ([`MilpConfig::reference_lp`]) has no dive tableau to probe and branches
//! most-fractional.
//!
//! ## Root cuts and node propagation
//!
//! Both always run. Before the tree search, the root relaxation is
//! strengthened by rounds of lifted cover, clique and Gomory cuts
//! ([`crate::cuts`]); a round is kept only if it moves the root bound, and
//! the kept rows join every node relaxation. No cut is separated inside
//! the tree. Before each node's LP solve, [`crate::propagate()`] runs over
//! the node's box, with the objective cutoff as a temporary row once an
//! incumbent exists, and fathoms the node when the box is empty
//! ([`MilpStats::propagation_fathoms`]).
//!
//! The dual bound is rounded to an integer before pruning when the model's
//! objective takes integer values at every integer point: every term on an
//! integral variable with an integer coefficient, and an integral constant.
//! That is read off the model, not configured — both register-saturation
//! objectives qualify, and a fractional objective is never rounded.

use crate::cancel::Cancel;
use crate::cuts::Cut;
use crate::model::{Model, Sense};
use crate::pool::{BranchStep, CutPool, Frontier, Incumbent, Node, PcStore};
use crate::simplex::{DiveStep, DiveTableau, LpOutcome, LpStats, Solution};
use crate::{par_map, Fnv, VarId, EPS};

/// Nodes per search round. A round is the atomic unit of commitment (and
/// of parallelism): its nodes are processed against frozen round-start
/// state and committed in batch order. The constant is independent of
/// [`MilpConfig::threads`] — that is what makes node counts and traces
/// thread-count invariant. The node budget is checked at round
/// boundaries, so stops can overshoot `node_limit` by up to `BATCH - 1`
/// nodes; a cancellation that lands mid-round discards the round whole.
const BATCH: usize = 8;

/// A node dives from its subproblem when its global index falls on this
/// period (power of two; relaxed 4x once an incumbent exists).
const DIVE_PERIOD: usize = 64;

/// A pseudocost direction is *reliable* — trusted without further strong
/// branching — once it has this many observations.
const PC_RELIABLE: usize = 1;

/// At most this many strong-branching-lite probes per node (each probe is
/// two tableau clones + dual repairs on the dive tableau).
const SB_PER_NODE: usize = 8;

/// Pivot cap per strong-branching probe repair: a probe is an estimate,
/// not a proof, so its dual repair is cut off early and a capped-out probe
/// simply yields no estimate (falling back to the store averages).
const SB_PIVOT_CAP: usize = 160;

/// Floor for the pseudocost product score: keeps a zero estimate on one
/// side from erasing the other side's signal.
const PC_SCORE_EPS: f64 = 1e-4;

/// Maximum root cut-separation rounds (separate → append → re-solve).
const ROOT_CUT_ROUNDS: usize = 8;

/// Cuts accepted per root separation round (most violated first).
const ROOT_CUTS_PER_ROUND: usize = 20;

/// Minimum violation for a separated cut to be accepted.
const CUT_MIN_VIOLATION: f64 = 1e-4;

/// Density cap for tableau-derived (Gomory) cuts: rows denser than this
/// tax every later LP solve more than their bound contribution is worth.
const GOMORY_MAX_TERMS: usize = 24;

/// A root separation round must improve the relaxation bound by more than
/// this (in score space) to earn another round.
const ROOT_CUT_MIN_IMPROVE: f64 = 1e-6;

/// A pooled cut slack for this many consecutive root re-solves is retired.
const CUT_MAX_AGE: u32 = 2;

/// Integrality tolerance: an LP value within this distance of an integer
/// counts as integral. It is also the feasibility tolerance an incumbent's
/// rounding must meet.
const INT_TOL: f64 = 1e-6;

/// Knobs for the branch-and-bound driver.
#[derive(Clone, Debug)]
pub struct MilpConfig {
    /// Maximum number of branch-and-bound nodes before giving up. Checked
    /// at round boundaries, so an interrupted search may overshoot by up
    /// to `BATCH - 1` nodes.
    pub node_limit: usize,
    /// Wall-clock budget; `None` disables the check. It is polled
    /// wherever [`MilpConfig::cancel`] is, down to the simplex pivot
    /// loops, but unlike the token's own deadline it stops only this
    /// solve: the caller's token is left untripped, so the caller sees an
    /// unproven answer rather than its own timeout.
    pub time_limit: Option<std::time::Duration>,
    /// Worker threads processing each round's batch (clamped to ≥ 1).
    /// **Semantically inert**: node counts, traces, incumbents, and the
    /// reported optimum are identical for every value — threads only
    /// change wall-clock time.
    pub threads: usize,
    /// Route every node relaxation through the explicit-bound-row
    /// *reference* simplex ([`crate::reference`]) instead of the
    /// bounded-variable path. Test-only differential baseline: bound rows
    /// double the tableau, and with no live node tableau to probe, nodes
    /// branch most-fractional instead of by pseudocost. The optimal
    /// objective must not depend on this flag.
    pub reference_lp: bool,
    /// Cooperative cancellation token, polled in full (flag, deadline,
    /// poll countdown) at every round and node start, every root cut
    /// round, every few dive steps, and every 128 iterations of the
    /// simplex pivot loops. A tripped token stops the search exactly
    /// like an exhausted budget: the best incumbent is returned with
    /// [`MilpStats::proven_optimal`] `false` and a valid
    /// [`MilpStats::dual_bound`] — or [`MilpError::BudgetExhausted`] when
    /// no incumbent exists yet. The default token never trips.
    pub cancel: Cancel,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            node_limit: 200_000,
            time_limit: Some(std::time::Duration::from_secs(120)),
            threads: 1,
            reference_lp: false,
            cancel: Cancel::new(),
        }
    }
}

impl MilpConfig {
    /// The default configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        MilpConfig {
            threads,
            ..MilpConfig::default()
        }
    }
}

/// Why no solution was returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MilpError {
    /// The model has no integer-feasible point.
    Infeasible,
    /// The relaxation (and hence the MILP) is unbounded.
    Unbounded,
    /// Node or time budget exhausted before proving optimality, and no
    /// incumbent was found.
    BudgetExhausted,
    /// The simplex reported unrecoverable numerical trouble (tiny pivots)
    /// and no incumbent was found.
    Numerical,
    /// The pre-solve static audit ([`crate::audit`]), which runs on every
    /// solve, rejected the model or its cut pool before the search
    /// started.
    Audit(crate::audit::AuditError),
}

impl std::fmt::Display for MilpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "MILP infeasible"),
            MilpError::Unbounded => write!(f, "MILP unbounded"),
            MilpError::BudgetExhausted => write!(f, "MILP budget exhausted without incumbent"),
            MilpError::Numerical => write!(f, "MILP abandoned on numerical trouble"),
            MilpError::Audit(e) => write!(f, "MILP rejected by static audit: {e}"),
        }
    }
}

impl std::error::Error for MilpError {}

/// Solve statistics, attached to every solution.
#[derive(Clone, Copy, Debug, Default)]
pub struct MilpStats {
    /// Branch-and-bound nodes explored (committed).
    pub nodes: usize,
    /// LP relaxations solved (cold node solves plus every incremental
    /// re-solve on a dive tableau: dive steps and strong-branching
    /// probes). Counts solves actually performed: the root dive and the
    /// depth-0 node reuse the root cut loop's relaxations uncharged.
    pub lp_solves: usize,
    /// Dive steps: incremental re-solves on a live [`DiveTableau`] (the
    /// diving heuristic's chain steps; tree nodes deliberately solve cold).
    pub dive_steps: usize,
    /// Branching decisions taken purely from trusted (reliable)
    /// accumulated pseudocosts — no strong-branching probe needed at that
    /// node.
    pub pseudocost_branches: usize,
    /// Strong-branching-lite probes performed to initialize unreliable
    /// pseudocosts (each probes both directions of one variable).
    pub strong_branch_probes: usize,
    /// Total simplex pivots (tableau eliminations) across all LP solves —
    /// like [`MilpStats::lp_solves`], the pivots actually performed, so a
    /// reused root relaxation is charged once.
    pub pivots: usize,
    /// Total bound flips (rank-1 rhs updates in place of pivots).
    pub bound_flips: usize,
    /// Dual-repair pivots of dive steps and strong-branching probes, every
    /// one priced by dual steepest edge (a subset of
    /// [`MilpStats::pivots`]; cold solves are primal and add none).
    pub dse_pivots: usize,
    /// Cutting planes the root cut loop accepted into the cut pool, net of
    /// dedup, not counting later retirements.
    pub cuts_added: usize,
    /// Root cut-separation rounds that accepted at least one cut.
    pub cut_rounds: usize,
    /// Nodes fathomed by the per-node bound-propagation pass — branches
    /// proved infeasible without an LP solve.
    pub propagation_fathoms: usize,
    /// Root relaxation bound before any cuts, in objective space (`NaN`
    /// when the root relaxation never solved to optimality, or when the
    /// search stopped before the cut loop finished).
    pub root_bound_pre_cuts: f64,
    /// Root relaxation bound after the last cut round, in objective space
    /// (`NaN` when `root_bound_pre_cuts` is).
    pub root_bound_post_cuts: f64,
    /// Relaxation tableau rows: the model's constraints plus the committed
    /// root cut rows. The bounded-variable path has no bound rows; the
    /// reference path adds one row per finite upper bound.
    pub rows: usize,
    /// Relaxation tableau columns: the model's variables plus one slack
    /// per inequality row (the reference path adds its bound-row slacks).
    pub cols: usize,
    /// True iff optimality was proven (budget not exhausted, no numerical
    /// trouble encountered).
    pub proven_optimal: bool,
    /// Best-possible objective value in the model's sense: an upper bound
    /// for maximization, lower for minimization. When optimality was
    /// proven this equals the objective; after an interrupted search it is
    /// the max of the incumbent score, every abandoned subproblem's
    /// relaxation bound, and the best open frontier bound, mapped back to
    /// objective space. May be infinite when the search was interrupted
    /// before the root relaxation solved.
    pub dual_bound: f64,
    /// FNV-1a content hash over the committed explored-node sequence
    /// (each node's depth and branch path, in commit order). Identical for
    /// every thread count. Two solves of the same model with the same
    /// semantic configuration that report different digests explored
    /// different trees.
    pub trace_digest: u64,
}

/// An integer-feasible solution plus solve statistics.
#[derive(Clone, Debug)]
pub struct MilpSolution {
    /// Value per model variable.
    pub values: Vec<f64>,
    /// Objective value in the model's sense.
    pub objective: f64,
    /// Search statistics.
    pub stats: MilpStats,
}

impl From<MilpSolution> for Solution {
    fn from(s: MilpSolution) -> Solution {
        Solution {
            values: s.values,
            objective: s.objective,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// Solves the mixed-integer program. Returns the optimal solution, or the
/// best incumbent if the budget ran out (flagged in
/// [`MilpStats::proven_optimal`]).
///
/// The search runs on the model as given: emitters fold single-variable
/// rows into bounds themselves (`Model::add_bound_or_constraint`), and the
/// only rows the search appends are the root cut loop's.
pub fn solve(model: &Model, cfg: &MilpConfig) -> Result<MilpSolution, MilpError> {
    crate::audit::check_model(model).map_err(MilpError::Audit)?;
    search(model, cfg)
}

// ---------------------------------------------------------------------------
// Search context and state.
// ---------------------------------------------------------------------------

/// Shared, read-only search context (safe to hand to worker threads).
struct Ctx<'a> {
    model: &'a Model,
    cfg: &'a MilpConfig,
    /// `+1` for maximize, `-1` for minimize: `score = dir · objective`,
    /// larger always better.
    dir: f64,
    original_bounds: Vec<(f64, f64)>,
    /// Per variable: is it integral (integer or binary)?
    integral: Vec<bool>,
    /// Does the objective take integer values at every integer point?
    /// Only then may a dual bound be rounded.
    integral_objective: bool,
    /// The solve's stop token: a child of [`MilpConfig::cancel`] that also
    /// trips at [`MilpConfig::time_limit`]. Every stop check polls it.
    cancel: Cancel,
}

impl Ctx<'_> {
    /// Integral rounding of a dual bound, in score space.
    fn tighten_score(&self, score: f64) -> f64 {
        if self.integral_objective && score.is_finite() {
            // score = dir·obj; maximizing the score, the valid integral
            // tightening is always floor (it is ceil in minimize objective
            // space, which is floor after negation).
            (score + INT_TOL).floor()
        } else {
            score
        }
    }
}

/// Does the objective take integer values at every integer point? True
/// when every term is on an integral variable with an integer
/// coefficient and the constant is an integer.
#[expect(
    clippy::float_cmp,
    reason = "integrality is exact: a coefficient is whole iff truncation returns it unchanged"
)]
fn objective_is_integral(model: &Model) -> bool {
    let whole = |c: f64| c.is_finite() && c.trunc() == c;
    whole(model.objective.constant)
        && model
            .objective
            .terms
            .iter()
            .all(|&(v, c)| model.is_integral(v) && whole(c))
}

/// Per-solve statistics counters (also the per-node local accumulator a
/// worker charges into, merged at commit time).
#[derive(Clone, Copy, Debug, Default)]
struct LocalCounters {
    lp_solves: usize,
    dive_steps: usize,
    pseudocost_branches: usize,
    strong_branch_probes: usize,
    pivots: usize,
    bound_flips: usize,
    dse_pivots: usize,
    cuts_added: usize,
    cut_rounds: usize,
    propagation_fathoms: usize,
}

impl LocalCounters {
    fn add(&mut self, o: &LocalCounters) {
        self.lp_solves += o.lp_solves;
        self.dive_steps += o.dive_steps;
        self.pseudocost_branches += o.pseudocost_branches;
        self.strong_branch_probes += o.strong_branch_probes;
        self.pivots += o.pivots;
        self.bound_flips += o.bound_flips;
        self.dse_pivots += o.dse_pivots;
        self.cuts_added += o.cuts_added;
        self.cut_rounds += o.cut_rounds;
        self.propagation_fathoms += o.propagation_fathoms;
    }

    /// Charges one cold LP solve and its [`LpStats`].
    fn charge_lp(&mut self, st: &LpStats) {
        self.lp_solves += 1;
        self.pivots += st.pivots;
        self.bound_flips += st.bound_flips;
    }

    /// Charges the pivot/flip work a dive tableau performed since
    /// `before` (its [`DiveTableau::work`] snapshot).
    fn charge_dive_work(&mut self, dt: &DiveTableau, before: (usize, usize, usize)) {
        let (p, f, d) = dt.work();
        self.pivots += p - before.0;
        self.bound_flips += f - before.1;
        self.dse_pivots += d - before.2;
    }
}

/// What processing one node produced, to be committed by the driver (or
/// discarded whole if any node of the round was interrupted).
enum OutcomeKind {
    /// Pruned, infeasible, or an integral leaf — no children (any
    /// incumbent offer rides in [`NodeOutcome::offers`]).
    Pruned,
    /// Branched: `(near, far)` children to push.
    Children(Box<(Node, Node)>),
    /// Numerically abandoned subtree; the payload score counts against
    /// the dual bound and surrenders the optimality proof.
    Numerical(f64),
    /// Unbounded relaxation at the root: the MILP is unbounded.
    Unbounded,
}

struct NodeOutcome {
    kind: OutcomeKind,
    records: Vec<(VarId, bool, f64)>,
    offers: Vec<(f64, f64, Vec<f64>)>,
    counters: LocalCounters,
    /// True when cancellation or a deadline altered (or could have
    /// altered) this node's processing. The driver aborts the whole round:
    /// an interrupted node's outcome is never committed, so the committed
    /// prefix stays deterministic.
    interrupted: bool,
}

/// A worker's view of one node: frozen round-start state plus local
/// effect logs. Nothing here is shared — `pc` is a private clone of the
/// round-start store that overlays the node's own observations (so
/// probes within the node see them), and every effect is logged for the
/// driver to replay in batch order at commit time.
struct NodeRun<'c, 'a> {
    ctx: &'c Ctx<'a>,
    /// Frozen round-start incumbent score, raised by this node's own
    /// offers (pruning gate).
    inc_score: f64,
    pc: PcStore,
    records: Vec<(VarId, bool, f64)>,
    offers: Vec<(f64, f64, Vec<f64>)>,
    counters: LocalCounters,
    interrupted: bool,
}

impl<'c, 'a> NodeRun<'c, 'a> {
    fn new(ctx: &'c Ctx<'a>, inc_score: f64, pc: PcStore) -> Self {
        NodeRun {
            ctx,
            inc_score,
            pc,
            records: Vec::new(),
            offers: Vec::new(),
            counters: LocalCounters::default(),
            interrupted: false,
        }
    }

    /// Does a candidate score strictly beat the best incumbent this node
    /// can see (round-start incumbent + own offers)?
    fn improves(&self, score: f64) -> bool {
        score > self.inc_score + EPS
    }

    /// Logs an incumbent offer. The driver replays offers through the
    /// deterministic [`Incumbent`] gate at commit time; locally the offer
    /// only raises this node's pruning floor.
    fn offer(&mut self, objective: f64, values: Vec<f64>) {
        let score = self.ctx.dir * objective;
        if score > self.inc_score {
            self.inc_score = score;
        }
        self.offers.push((score, objective, values));
    }

    /// Logs one pseudocost observation, also applying it to the local
    /// overlay store so later probes in this node see it.
    fn record(&mut self, v: VarId, up: bool, per_unit: f64) {
        self.pc.record(v, up, per_unit);
        self.records.push((v, up, per_unit));
    }

    fn finish(self, kind: OutcomeKind) -> NodeOutcome {
        NodeOutcome {
            kind,
            records: self.records,
            offers: self.offers,
            counters: self.counters,
            interrupted: self.interrupted,
        }
    }
}

/// Driver-owned mutable search state, updated only at commit time.
struct SearchState {
    frontier: Frontier,
    incumbent: Incumbent,
    pc: PcStore,
    nodes: usize,
    digest: Fnv,
    counters: LocalCounters,
    numerical: bool,
    /// Max score over numerically abandoned subproblems, `-∞` when none.
    abandoned: f64,
    /// Root relaxation score before/after cuts (NaN = loop never ran).
    root_bound_pre: f64,
    root_bound_post: f64,
}

impl SearchState {
    fn fresh(num_vars: usize) -> SearchState {
        SearchState {
            frontier: Frontier::seeded(),
            incumbent: Incumbent::new(),
            pc: PcStore::new(num_vars),
            nodes: 0,
            digest: Fnv::new(),
            counters: LocalCounters::default(),
            numerical: false,
            abandoned: f64::NEG_INFINITY,
            root_bound_pre: f64::NAN,
            root_bound_post: f64::NAN,
        }
    }

    /// Replays a node's logged effects in order: counters, pseudocost
    /// observations, incumbent offers.
    fn absorb_effects(&mut self, out: NodeOutcome) -> OutcomeKind {
        self.counters.add(&out.counters);
        for (v, up, x) in out.records {
            self.pc.record(v, up, x);
        }
        for (score, objective, values) in out.offers {
            self.incumbent.offer(score, objective, values, EPS);
        }
        out.kind
    }

    /// Commits one processed node in batch order. Returns `true` when the
    /// node proved the MILP unbounded.
    fn commit_node(&mut self, node: &Node, out: NodeOutcome) -> bool {
        self.nodes += 1;
        self.digest.u64v(node.depth as u64);
        self.digest.u64v(node.path.len() as u64);
        self.digest.bytes(&node.path);
        match self.absorb_effects(out) {
            OutcomeKind::Pruned => false,
            OutcomeKind::Children(b) => {
                let (near, far) = *b;
                self.frontier.push(near);
                self.frontier.push(far);
                false
            }
            OutcomeKind::Numerical(score) => {
                self.numerical = true;
                if score > self.abandoned {
                    self.abandoned = score;
                }
                false
            }
            OutcomeKind::Unbounded => true,
        }
    }
}

// ---------------------------------------------------------------------------
// The round driver.
// ---------------------------------------------------------------------------

/// The round-based branch-and-bound search: root cut loop, root dive, then
/// rounds over the frontier until it empties or the search is stopped.
fn search(model: &Model, cfg: &MilpConfig) -> Result<MilpSolution, MilpError> {
    let n = model.num_vars();
    let ctx = Ctx {
        model,
        cfg,
        dir: match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        },
        original_bounds: (0..n).map(|i| model.bounds(VarId(i as u32))).collect(),
        integral: (0..n).map(|i| model.is_integral(VarId(i as u32))).collect(),
        integral_objective: objective_is_integral(model),
        cancel: cfg.cancel.child(cfg.time_limit),
    };
    let mut st = SearchState::fresh(n);

    // Root cut loop: rounds of separate → append → re-solve on the root
    // relaxation, before the root dive. Committed atomically like the dive:
    // an interrupted loop discards its cuts and its counters whole, and the
    // search stops at its first round boundary. The loop's model — the base
    // model plus every kept cut row, in pool insertion order — is the
    // *search model* every node relaxation solves against.
    let mut root_interrupted = false;
    let (search_model, dive_seed, mut root_lp) = match root_cut_loop(&ctx, model) {
        RootCuts::Done(res) => {
            // The 512-case GMI proptest's oracle, run for real: no
            // root-separated cut may exclude an integer point of the base
            // model (exhaustively when the box is small, cheap row
            // invariants always).
            crate::audit::check_cuts(model, res.pool.cuts()).map_err(MilpError::Audit)?;
            st.counters.add(&res.counters);
            st.root_bound_pre = res.pre;
            st.root_bound_post = res.post;
            (res.model, res.dive_seed, res.root_lp)
        }
        // LP infeasibility with (globally valid) cuts appended still proves
        // MILP infeasibility: every integer-feasible point satisfies every
        // cut.
        RootCuts::Infeasible => return Err(MilpError::Infeasible),
        RootCuts::Interrupted => {
            root_interrupted = true;
            (model.clone(), None, None)
        }
    };

    // Deterministic root dive: seeds the incumbent before the tree search
    // so every run starts from the same incumbent floor. Committed
    // atomically — an interrupted dive is discarded whole, so its offers
    // never make a committed prefix diverge from the uninterrupted run.
    // The dive runs on the **pre-cut** model: cut rows reshape the
    // relaxation's face structure in ways that strand the rounding
    // heuristic short of any integer point (observed on the saturation
    // corpus — the cut-augmented dive finds nothing where the plain one
    // lands an incumbent immediately), and every offer is re-validated
    // against the original model at commit time regardless. That pre-cut
    // relaxation is the cut loop's first solve, whose tableau the dive
    // starts from.
    if !root_interrupted {
        let mut run = NodeRun::new(&ctx, st.incumbent.score(), st.pc.clone());
        dive_probe(&mut run, model, dive_seed);
        if !run.interrupted {
            let out = run.finish(OutcomeKind::Pruned);
            st.absorb_effects(out);
        }
    }

    // Per-worker model copies, allocated once and reused across rounds
    // (nodes change only variable bounds): the workers of every round.
    let workers = cfg.threads.clamp(1, BATCH);
    let mut work_models: Vec<Model> = (0..workers).map(|_| search_model.clone()).collect();

    let mut interrupted = false;
    let mut unbounded = false;
    'search: loop {
        // Round-boundary checks: one full poll of the solve's token (flag,
        // deadlines, poll countdown) and the node budget. A stop inside a
        // round discards that round whole, so between-round state is
        // all-committed.
        if ctx.cancel.cancelled() {
            interrupted = true;
            break;
        }
        if st.nodes >= cfg.node_limit {
            interrupted = true;
            break;
        }
        if st.frontier.is_empty() {
            break;
        }
        let take = BATCH.min(st.frontier.len());
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            batch.push(st.frontier.pop().expect("sized by frontier length"));
        }
        // Dive scheduling is a function of the committed node index, not
        // of any worker-local counter: deterministic at every thread
        // count. The period relaxes 4x once an incumbent exists.
        let no_incumbent = st.incumbent.peek().is_none();
        let period_mask = if no_incumbent {
            DIVE_PERIOD - 1
        } else {
            4 * DIVE_PERIOD - 1
        };
        // Every node of the round sees only the frozen round-start state,
        // so the outcomes do not depend on which worker ran which node.
        // `root_lp`, the cut loop's relaxation of the committed root model,
        // goes to the depth-0 node; only the first round, which holds the
        // root alone, carries it.
        let items: Vec<_> = batch
            .iter()
            .enumerate()
            .map(|(bi, node)| {
                let dive = (st.nodes + bi) & period_mask == 1;
                (node, dive, root_lp.take_if(|_| node.depth == 0))
            })
            .collect();
        let inc_score = st.incumbent.score();
        let outcomes = par_map(&mut work_models, items, |work, (node, dive, lp)| {
            run_one(&ctx, inc_score, &st.pc, node, dive, work, lp)
        });
        if outcomes.iter().any(|o| o.interrupted) {
            // Abort the round whole: push the batch back so the frontier
            // (and hence the dual bound) covers exactly the uncommitted
            // work, and nothing half-processed leaks into the state.
            for node in batch {
                st.frontier.push(node);
            }
            interrupted = true;
            break;
        }
        for (node, out) in batch.iter().zip(outcomes) {
            if st.commit_node(node, out) {
                unbounded = true;
                break 'search;
            }
        }
    }

    if unbounded {
        return Err(MilpError::Unbounded);
    }

    let (rows, cols) = if cfg.reference_lp {
        crate::reference::tableau_shape(&search_model)
    } else {
        crate::simplex::tableau_shape(&search_model)
    };
    let inc_score = st.incumbent.score();
    let score_bound = if interrupted {
        // Open nodes are not abandoned, but their bounds still cap what
        // the unexplored remainder could reach, so the reported dual bound
        // folds the best open score.
        inc_score.max(st.abandoned).max(st.frontier.best_score())
    } else if st.numerical {
        inc_score.max(st.abandoned)
    } else {
        inc_score
    };
    let stats = MilpStats {
        nodes: st.nodes,
        lp_solves: st.counters.lp_solves,
        dive_steps: st.counters.dive_steps,
        pseudocost_branches: st.counters.pseudocost_branches,
        strong_branch_probes: st.counters.strong_branch_probes,
        pivots: st.counters.pivots,
        bound_flips: st.counters.bound_flips,
        dse_pivots: st.counters.dse_pivots,
        cuts_added: st.counters.cuts_added,
        cut_rounds: st.counters.cut_rounds,
        propagation_fathoms: st.counters.propagation_fathoms,
        root_bound_pre_cuts: ctx.dir * st.root_bound_pre,
        root_bound_post_cuts: ctx.dir * st.root_bound_post,
        rows,
        cols,
        proven_optimal: !interrupted && !st.numerical,
        dual_bound: ctx.dir * score_bound,
        trace_digest: st.digest.state(),
    };
    match st.incumbent.peek() {
        Some((objective, values)) => Ok(MilpSolution {
            values: values.clone(),
            objective: *objective,
            stats,
        }),
        None if interrupted => Err(MilpError::BudgetExhausted),
        None if st.numerical => Err(MilpError::Numerical),
        None => Err(MilpError::Infeasible),
    }
}

/// Outcome of the root cut loop.
enum RootCuts {
    /// Loop finished (possibly without any cuts): commit the pool, the
    /// cut-augmented model, the pre/post root bounds (score space, NaN
    /// when the root never solved to optimality), and the charged work.
    Done(Box<RootCutResult>),
    /// The root relaxation is infeasible — with only globally valid rows
    /// appended, that proves the MILP infeasible.
    Infeasible,
    /// Cancellation or a deadline landed mid-loop. Everything is
    /// discarded (cuts, counters, bounds).
    Interrupted,
}

struct RootCutResult {
    pool: CutPool,
    model: Model,
    pre: f64,
    post: f64,
    counters: LocalCounters,
    /// The first optimal relaxation, of `base` itself: the root dive starts
    /// from it instead of cold-solving the same model again.
    dive_seed: Option<SolvedLp>,
    /// The optimal relaxation of the committed `model`, for the depth-0
    /// node; `None` when aging rebuilt the model after its last solve.
    root_lp: Option<SolvedLp>,
}

/// An optimal relaxation together with its live tableau, handed on so the
/// next consumer of the same LP does not solve it again.
type SolvedLp = (Solution, DiveTableau);

/// Rounds of separate → append → re-solve on the root relaxation of
/// `base`, until separation dries up or the bound stops improving. Works
/// entirely on locals — the caller commits (or discards) the result
/// atomically.
fn root_cut_loop(ctx: &Ctx<'_>, base: &Model) -> RootCuts {
    let mut counters = LocalCounters::default();
    let mut pool = CutPool::new();
    let mut model = base.clone();

    let solve_root =
        |model: &Model, counters: &mut LocalCounters| -> (LpOutcome, Option<DiveTableau>) {
            let (outcome, dt, st) = DiveTableau::new(model, Some(&ctx.cancel));
            counters.charge_lp(&st);
            (outcome, dt)
        };
    let done_empty = |counters: LocalCounters, model: Model| -> RootCuts {
        RootCuts::Done(Box::new(RootCutResult {
            pool: CutPool::new(),
            model,
            pre: f64::NAN,
            post: f64::NAN,
            counters,
            dive_seed: None,
            root_lp: None,
        }))
    };

    let (mut sol, mut root_tab) = match solve_root(&model, &mut counters) {
        (LpOutcome::Optimal(s), dt) => (s, dt),
        (LpOutcome::Infeasible, _) => return RootCuts::Infeasible,
        // Unbounded root: leave it to the search (the depth-0 node
        // reports it); nothing to cut from.
        (LpOutcome::Unbounded, _) => return done_empty(counters, model),
        (LpOutcome::Cancelled, _) => return RootCuts::Interrupted,
        // Numerical trouble at the root — skip cutting, let the search's
        // own node handling deal with it.
        (LpOutcome::PivotTooSmall, _) => return done_empty(counters, model),
    };
    let pre = ctx.dir * sol.objective;
    let mut post = pre;
    // `root_tab` stays the tableau of the committed `model`; the dive gets
    // its own copy of this first one.
    let dive_seed = root_tab.clone().map(|dt| (sol.clone(), dt));
    for _ in 0..ROOT_CUT_ROUNDS {
        if ctx.cancel.cancelled() {
            return RootCuts::Interrupted;
        }
        // Round snapshot: a round whose cuts fail to move the root bound
        // is rolled back whole. Bound-neutral cuts still reshape the LP's
        // vertex landscape, and every later node LP pays for the extra
        // rows — observed on the saturation corpus to derail pseudocost
        // branching badly enough to *triple* the tree. Only rounds that
        // demonstrably tighten the relaxation earn a place in the pool.
        let round_pool = pool.clone();
        let round_model = model.clone();
        let round_cuts_added = counters.cuts_added;
        let round_cut_rounds = counters.cut_rounds;
        let mut cuts = crate::cuts::separate(
            &model,
            &ctx.original_bounds,
            &ctx.integral,
            &sol.values,
            ROOT_CUTS_PER_ROUND,
            CUT_MIN_VIOLATION,
            |k| pool.contains(k),
        );
        // Gomory mixed-integer cuts off the root tableau fill whatever
        // budget combinatorial separation left: unlike cover/clique cuts
        // they bite on *any* fractional vertex — on the unit-coefficient
        // counting rows of the saturation intLP, where every cover is
        // implied by its own source row, they are the separator that
        // actually closes the root gap. The tableau was built from
        // `model` at global bounds, so the cuts are globally valid.
        if let Some(dt) = &root_tab {
            if cuts.len() < ROOT_CUTS_PER_ROUND {
                for (terms, rhs) in dt.gomory_cuts(
                    &model,
                    &ctx.integral,
                    ROOT_CUTS_PER_ROUND - cuts.len(),
                    GOMORY_MAX_TERMS,
                ) {
                    let cut = Cut { terms, rhs };
                    if cut.violation(&sol.values) >= CUT_MIN_VIOLATION
                        && !pool.contains(cut.key())
                        && !cuts.iter().any(|c| c.key() == cut.key())
                    {
                        cuts.push(cut);
                    }
                }
            }
        }
        if cuts.is_empty() {
            break;
        }
        for cut in cuts {
            cut.append_to(&mut model);
            if pool.insert(cut) {
                counters.cuts_added += 1;
            }
        }
        counters.cut_rounds += 1;
        // Score space: cuts can only *lower* the (maximizing) score bound.
        // A re-solve that ends unbounded or in numerical trouble proves
        // nothing about the round's cuts, so it is rolled back exactly like
        // a round that failed to move the bound.
        let improved = match solve_root(&model, &mut counters) {
            (LpOutcome::Optimal(s), dt) if ctx.dir * s.objective < post - ROOT_CUT_MIN_IMPROVE => {
                Some((s, dt))
            }
            (LpOutcome::Infeasible, _) => return RootCuts::Infeasible,
            (LpOutcome::Cancelled, _) => return RootCuts::Interrupted,
            _ => None,
        };
        let Some((new_sol, new_tab)) = improved else {
            pool = round_pool;
            model = round_model;
            counters.cuts_added = round_cuts_added;
            counters.cut_rounds = round_cut_rounds;
            break;
        };
        post = ctx.dir * new_sol.objective;
        (sol, root_tab) = (new_sol, new_tab);
        // Activity-based aging: cuts slack at the new root point age; old
        // enough, they retire and the model is rebuilt without them (the
        // pool keeps insertion order, so the rebuild is deterministic).
        // The rebuilt model no longer matches the live tableau's row set,
        // so tableau-derived separation sits the next round out.
        if pool.age_and_retire(&sol.values, CUT_MAX_AGE) > 0 {
            model = base.clone();
            for cut in pool.cuts() {
                cut.append_to(&mut model);
            }
            root_tab = None;
        }
    }
    RootCuts::Done(Box::new(RootCutResult {
        pool,
        model,
        pre,
        post,
        counters,
        dive_seed,
        root_lp: root_tab.map(|dt| (sol, dt)),
    }))
}

/// Runs one node against frozen round-start state, producing its outcome.
fn run_one(
    ctx: &Ctx<'_>,
    inc_score: f64,
    pc: &PcStore,
    node: &Node,
    dive: bool,
    work: &mut Model,
    root_lp: Option<SolvedLp>,
) -> NodeOutcome {
    let mut run = NodeRun::new(ctx, inc_score, pc.clone());
    // A cancel that lands mid-round aborts the round before more work is
    // sunk; the node goes back onto the frontier uncommitted.
    if ctx.cancel.cancelled() {
        run.interrupted = true;
        return run.finish(OutcomeKind::Pruned);
    }
    let kind = process_node(&mut run, work, node, dive, root_lp);
    run.finish(kind)
}

fn process_node(
    run: &mut NodeRun<'_, '_>,
    work: &mut Model,
    node: &Node,
    dive: bool,
    root_lp: Option<SolvedLp>,
) -> OutcomeKind {
    let ctx = run.ctx;
    // Prune by the inherited parent bound — the incumbent may have
    // improved since this node was pushed.
    if !run.improves(node.score) {
        return OutcomeKind::Pruned;
    }

    // Apply node bounds over the originals, with the integral
    // bound-tightening fast path: integer domains are rounded inward, which
    // both shrinks the relaxation and detects infeasible branches without
    // an LP solve.
    for (i, &(lo, hi)) in ctx.original_bounds.iter().enumerate() {
        work.set_bounds(VarId(i as u32), lo, hi);
    }
    for &(v, lo, hi) in &node.bounds {
        let (clo, chi) = work.bounds(v);
        let nlo = clo.max(lo);
        let nhi = chi.min(hi);
        if nlo > nhi {
            return OutcomeKind::Pruned;
        }
        work.set_bounds(v, nlo, nhi);
    }
    for (i, &int) in ctx.integral.iter().enumerate() {
        if !int {
            continue;
        }
        let v = VarId(i as u32);
        let (lo, hi) = work.bounds(v);
        let tlo = if lo.is_finite() {
            (lo - INT_TOL).ceil()
        } else {
            lo
        };
        let thi = if hi.is_finite() {
            (hi + INT_TOL).floor()
        } else {
            hi
        };
        if tlo > thi {
            return OutcomeKind::Pruned;
        }
        #[expect(
            clippy::float_cmp,
            reason = "whether rounding moved a bound is exact; a tolerance here would change which nodes reset bounds, and so the tree"
        )]
        if tlo != lo || thi != hi {
            work.set_bounds(v, tlo, thi);
        }
    }

    // Cheap bound propagation on the node's tightened box before paying
    // for a simplex solve: activity arguments over the (cut-augmented)
    // rows shrink integer domains, and a propagation-proven-empty domain
    // fathoms the branch with zero LP work. Once an incumbent exists the
    // pass also propagates the **objective cutoff** as a temporary row
    // (`dir·obj ≥` the next improving value, the next integer when the
    // objective is integral): a node survives here
    // only if it can still beat the incumbent — sound because the search
    // only ever asks each subtree for *improving* solutions, and
    // deterministic because the row derives from the frozen round-start
    // incumbent. The pass is strictly **check-only**: the temporary row is
    // popped and every tightened bound is restored before the solve, so
    // propagation's only influence on the search is the fathom verdict —
    // feeding the tightenings to the LP was observed to perturb branching
    // on the saturation corpus for no node-count gain.
    if run.inc_score.is_finite() || !node.bounds.is_empty() {
        let cutoff = run.inc_score.is_finite();
        if cutoff {
            let target = if ctx.integral_objective {
                (run.inc_score + INT_TOL).floor() + 1.0
            } else {
                run.inc_score + EPS
            };
            // dir·(Σcⱼxⱼ + k) ≥ target  ⇔  Σ(−dir·cⱼ)xⱼ ≤ dir·k − target.
            let terms: Vec<(VarId, f64)> = ctx
                .model
                .objective
                .terms
                .iter()
                .map(|&(v, c)| (v, -ctx.dir * c))
                .collect();
            let rhs = ctx.dir * ctx.model.objective.constant - target;
            work.add_constraint_terms(&terms, crate::Cmp::Le, rhs);
        }
        let saved: Vec<(f64, f64)> = (0..work.num_vars())
            .map(|i| work.bounds(VarId(i as u32)))
            .collect();
        let res = crate::propagate::propagate(work, INT_TOL, 3);
        for (i, &(lo, hi)) in saved.iter().enumerate() {
            work.set_bounds(VarId(i as u32), lo, hi);
        }
        if cutoff {
            work.constraints.pop();
        }
        if let crate::propagate::Propagation::Infeasible = res {
            run.counters.propagation_fathoms += 1;
            return OutcomeKind::Pruned;
        }
    }

    // Node relaxations are deliberately solved *cold*: a fresh two-phase
    // solve returns the same objective as a warm re-solve, but its vertex
    // (among the many degenerate optima of the big-M RS relaxations) guides
    // fractionality-based branching far better than the minimally-repaired
    // parent vertex a warm start lands on — measured tree sizes differ by
    // 100-1000x on the random-kernel corpus. On the bounded path the cold
    // tableau stays live as a DiveTableau for the strong-branching probes
    // and the scheduled dive below, whose chains of pure bound tightenings
    // run in place.
    let (outcome, mut dt) = solve_node_lp(run, work, root_lp);
    let sol = match outcome {
        LpOutcome::Optimal(s) => s,
        LpOutcome::Infeasible => return OutcomeKind::Pruned,
        LpOutcome::Unbounded => {
            // Unbounded relaxation at the root means unbounded MILP if a
            // feasible integer point exists; report unbounded directly
            // (our models never hit this outside tests).
            if node.depth == 0 {
                return OutcomeKind::Unbounded;
            }
            return OutcomeKind::Pruned;
        }
        // An interruption, not numerical trouble: never committed.
        LpOutcome::Cancelled => {
            run.interrupted = true;
            return OutcomeKind::Pruned;
        }
        LpOutcome::PivotTooSmall => {
            // Soft numerical failure: skip the node, surrender the
            // optimality proof instead of crashing or silently mispruning.
            // The skipped subtree's bound still counts against the dual
            // bound of the (now unproven) answer.
            return OutcomeKind::Numerical(node.score);
        }
    };

    // Feed the pseudocosts: this node's relaxation is exactly the child LP
    // of the branching step that created it, so the degradation against
    // the parent's raw bound is one per-unit observation. Recorded before
    // any pruning — a pruned child is still a valid observation.
    let raw_score = ctx.dir * sol.objective;
    if let Some(b) = node.branch {
        if b.frac > 1e-9 && b.parent_score.is_finite() {
            run.record(
                b.var,
                b.up,
                ((b.parent_score - raw_score) / b.frac).max(0.0),
            );
        }
    }

    // Bound pruning on the fresh relaxation. Children are queued under the
    // *tightened* (integer-rounded) bound: rounding loses nothing for
    // pruning, and it collapses the near-flat big-M bounds into integer
    // buckets, inside which the frontier's depth tie-break dives straight
    // to an incumbent instead of ping-ponging across the frontier.
    let score = ctx.tighten_score(raw_score);
    if !run.improves(score) {
        return OutcomeKind::Pruned;
    }

    // Pick the branching variable: pseudocost product rule with
    // strong-branching-lite initialization on the node's dive tableau, or
    // most-fractional on the reference path, which has none.
    let branch = match dt.as_mut() {
        Some(t) => select_branch_pseudocost(run, work, t, &sol, raw_score),
        None => select_most_fractional(ctx, &sol),
    };
    if run.interrupted {
        return OutcomeKind::Pruned;
    }

    match branch {
        None => {
            // Integral: candidate incumbent. The rounding is gated by a
            // *real* feasibility check — `debug_assert!` alone would let an
            // infeasible rounding become the reported optimum in release
            // builds. A leaf that fails the check cannot be explored
            // further (nothing fractional to branch on), so the optimality
            // proof is surrendered instead of silently dropping the
            // subtree.
            let mut values = sol.values;
            for (i, val) in values.iter_mut().enumerate() {
                if ctx.integral[i] {
                    *val = val.round();
                }
            }
            if ctx.model.check_feasible(&values, INT_TOL).is_ok() {
                let objective = ctx.model.objective.eval(&values);
                run.offer(objective, values);
                OutcomeKind::Pruned
            } else {
                OutcomeKind::Numerical(score)
            }
        }
        Some((v, x)) => {
            // Simple-rounding primal heuristic: the big-M relaxations of
            // the register-saturation models are nearly flat, so a pure
            // dive needs hundreds of levels before its leaf is integral —
            // but naively rounding the fractional relaxation is very often
            // already feasible. An early incumbent is what turns the
            // bound into actual pruning.
            let mut rounded = sol.values.clone();
            for (i, val) in rounded.iter_mut().enumerate() {
                if ctx.integral[i] {
                    *val = val.round();
                }
            }
            let objective = ctx.model.objective.eval(&rounded);
            if run.improves(ctx.dir * objective)
                && ctx.model.check_feasible(&rounded, INT_TOL).is_ok()
            {
                run.offer(objective, rounded);
            }
            let fl = x.floor();
            let f_down = x - fl;
            // The near side (the child containing the rounding of the
            // fractional value) gets path bit 0, the far side bit 1; the
            // frontier pops lexicographically smaller paths first on
            // score/depth ties, so the near side is explored first,
            // diving towards an incumbent fast — by node identity, not by
            // push timing.
            let near_is_down = f_down <= 0.5;
            let child = |lo: f64, hi: f64, frac: f64, up: bool, bit: u8| {
                let mut b = node.bounds.clone();
                b.push((v, lo, hi));
                let mut path = node.path.clone();
                path.push(bit);
                Node {
                    bounds: b,
                    depth: node.depth + 1,
                    score,
                    branch: Some(BranchStep {
                        var: v,
                        frac,
                        parent_score: raw_score,
                        up,
                    }),
                    path,
                }
            };
            let down = child(
                f64::NEG_INFINITY,
                fl,
                f_down,
                false,
                if near_is_down { 0 } else { 1 },
            );
            let up = child(
                fl + 1.0,
                f64::INFINITY,
                1.0 - f_down,
                true,
                if near_is_down { 1 } else { 0 },
            );
            let (near, far) = if near_is_down { (down, up) } else { (up, down) };
            // Scheduled diving restart: when the driver flagged this node
            // (its global index fell on the dive period), re-run the
            // diving heuristic from this subproblem, chaining in-place
            // bound folds on the node's live tableau. On the near-flat
            // big-M relaxations the dual bound barely moves, so pruning
            // lives or dies by incumbent quality — a dive from a deep
            // subproblem regularly finds the incumbent that collapses the
            // remaining frontier. Extra incumbents can only tighten the
            // bound, never change the reported optimum.
            if dive {
                match dt.take() {
                    Some(t) => dive_from(run, work, t, sol),
                    None => {
                        // Reference path: no live tableau from the node
                        // solve; build one cold for the dive.
                        if let (LpOutcome::Optimal(s), Some(t)) = cold_dive_tableau(run, work) {
                            dive_from(run, work, t, s);
                        }
                    }
                }
            }
            OutcomeKind::Children(Box::new((near, far)))
        }
    }
}

// ---------------------------------------------------------------------------
// LP plumbing.
// ---------------------------------------------------------------------------

/// One counted cold LP relaxation solve, routed through the configured
/// path. On the bounded-variable path the optimal tableau is kept live as
/// a [`DiveTableau`] for strong-branching probes and scheduled dives; the
/// explicit-bound-row reference path ([`MilpConfig::reference_lp`])
/// returns no tableau.
///
/// `root_lp` (depth-0 node only) is the root cut loop's solve of the same
/// committed model. It stands in for the cold solve — nothing is charged,
/// the solve already was — when the node's rounded box and row count
/// match it bit for bit; a cold solve would rebuild it exactly.
fn solve_node_lp(
    run: &mut NodeRun<'_, '_>,
    work: &Model,
    root_lp: Option<SolvedLp>,
) -> (LpOutcome, Option<DiveTableau>) {
    if run.ctx.cfg.reference_lp {
        let (outcome, lp_stats) = crate::reference::solve_relaxation_stats(work);
        run.counters.charge_lp(&lp_stats);
        (outcome, None)
    } else if let Some((sol, dt)) = root_lp.filter(|(_, dt)| dt.fits(work)) {
        (LpOutcome::Optimal(sol), Some(dt))
    } else {
        cold_dive_tableau(run, work)
    }
}

/// One counted cold solve that keeps the tableau live (the bounded node
/// path, the root probe, and the reference path's dive entry).
fn cold_dive_tableau(run: &mut NodeRun<'_, '_>, model: &Model) -> (LpOutcome, Option<DiveTableau>) {
    let (outcome, dt, lp_stats) = DiveTableau::new(model, Some(&run.ctx.cancel));
    run.counters.charge_lp(&lp_stats);
    (outcome, dt)
}

/// One counted incremental re-solve on a live dive tableau: applies the
/// bound tightenings in place (rank-1 rhs folds) and dual-repairs.
fn dive_tighten(
    run: &mut NodeRun<'_, '_>,
    dt: &mut DiveTableau,
    changes: &[(VarId, f64, f64)],
    work: &Model,
) -> DiveStep {
    run.counters.lp_solves += 1;
    run.counters.dive_steps += 1;
    let before = dt.work();
    let step = dt.tighten(changes, work);
    run.counters.charge_dive_work(dt, before);
    step
}

// ---------------------------------------------------------------------------
// Diving heuristic.
// ---------------------------------------------------------------------------

/// How close to an integer a variable must sit for the diving heuristic to
/// batch-fix it alongside the most fractional one ("vector diving"). The
/// big-M RS relaxations park many binaries at values like `0.98`; fixing
/// them together collapses a dive from one LP per variable to a handful of
/// LPs total.
const DIVE_BATCH_TOL: f64 = 0.1;

/// Diving primal heuristic on the **incremental dive tableau**: from the
/// relaxation `sol` of the subproblem whose optimal tableau lives in `dt`,
/// repeatedly fix the most fractional integral variable — together with
/// every near-integral one (within [`DIVE_BATCH_TOL`] of an integer) — to
/// its nearest in-bounds integer and dual-repair **in place**. No tableau
/// rebuild, no basis reinstall, no model mutation: each step is a batch of
/// rank-1 rhs folds plus a few dual pivots. An infeasible batch step
/// restores the pre-step tableau (one clone held per step) and falls back
/// to fixing the single most fractional variable; if that is infeasible
/// too, its opposite rounding is tried once, and a further failure aborts
/// the dive. A stalled dual repair aborts the dive outright (the tableau
/// state is unreliable, and the dive is only a heuristic). When the dive
/// reaches an integral relaxation, the (feasibility-checked) point is
/// offered as an incumbent.
///
/// The dive never prunes and never proves anything; it only feeds the
/// incumbent bound. A dive cut short by cancellation or a deadline marks
/// the node interrupted — the driver then aborts the whole round, so a
/// partially-run dive is never committed and determinism survives
/// asynchronous cancellation.
fn dive_from(run: &mut NodeRun<'_, '_>, work: &Model, mut dt: DiveTableau, mut sol: Solution) {
    let ctx = run.ctx;
    let max_steps = 2 * ctx.integral.len() + 8;
    let mut batch: Vec<(VarId, f64, f64)> = Vec::new();
    // Pre-step snapshot buffer, allocated once per dive and refilled by
    // `clone_from` each step (a failed batch backs out by restoring it —
    // the dive tableau itself only supports tightenings).
    let mut snap = dt.clone();
    for step in 0..max_steps {
        if step & 7 == 0 && ctx.cancel.cancelled() {
            run.interrupted = true;
            return;
        }
        // Most fractional integral variable of the current relaxation.
        let pick = select_most_fractional(ctx, &sol).map(|(v, x)| (v.index(), x));
        let Some((i, x)) = pick else {
            // Integral relaxation: offer it.
            let mut values = sol.values;
            for (i, val) in values.iter_mut().enumerate() {
                if ctx.integral[i] {
                    *val = val.round();
                }
            }
            if ctx.model.check_feasible(&values, INT_TOL).is_ok() {
                let objective = ctx.model.objective.eval(&values);
                run.offer(objective, values);
            }
            return;
        };

        // Batch step: fix every near-integral variable plus the most
        // fractional one. Refreshing the snapshot is one tableau memcpy,
        // ≈ a single pivot's cost.
        batch.clear();
        for (j, &int) in ctx.integral.iter().enumerate() {
            if !int {
                continue;
            }
            let xj = sol.values[j];
            let frac = (xj - xj.round()).abs();
            if frac <= INT_TOL || (frac > DIVE_BATCH_TOL && j != i) {
                continue;
            }
            let v = VarId(j as u32);
            let (lo, hi) = dt.bounds(v);
            let target = xj.round().clamp(lo, hi);
            batch.push((v, target, target));
        }
        snap.clone_from(&dt);
        match dive_tighten(run, &mut dt, &batch, work) {
            DiveStep::Optimal(s) => {
                sol = s;
                continue;
            }
            DiveStep::Infeasible => {}
            DiveStep::Stalled => return,
            DiveStep::Cancelled => {
                run.interrupted = true;
                return;
            }
        }
        // Batch failed: restore and fix only the most fractional variable
        // (when the batch was already that single variable, go straight to
        // the opposite rounding).
        let single_was_batch = batch.len() == 1;
        dt.clone_from(&snap);
        let v = VarId(i as u32);
        let (lo, hi) = dt.bounds(v);
        let near = x.round().clamp(lo, hi);
        let far = if near > x { x.floor() } else { x.ceil() }.clamp(lo, hi);
        if !single_was_batch {
            match dive_tighten(run, &mut dt, &[(v, near, near)], work) {
                DiveStep::Optimal(s) => {
                    sol = s;
                    continue;
                }
                DiveStep::Infeasible => dt.clone_from(&snap),
                DiveStep::Stalled => return,
                DiveStep::Cancelled => {
                    run.interrupted = true;
                    return;
                }
            }
        }
        #[expect(
            clippy::float_cmp,
            reason = "both roundings of `x` are clamped to one box; exactly equal means the clamp merged them and there is no far side"
        )]
        if far == near {
            return;
        }
        match dive_tighten(run, &mut dt, &[(v, far, far)], work) {
            DiveStep::Optimal(s) => sol = s,
            DiveStep::Infeasible | DiveStep::Stalled => return,
            DiveStep::Cancelled => {
                run.interrupted = true;
                return;
            }
        }
    }
}

/// Deterministic root diving probe: seeds the incumbent before the tree
/// search, so every run (and every thread count) begins from the same
/// incumbent floor. Dives on the given (pre-cut) model, from `seed` when
/// the root cut loop already solved it, else from a cold solve; always on
/// the bounded-variable dive tableau (the reference path has no
/// incremental machinery; dives only feed incumbents, which are
/// feasibility-checked against the cut-free original model, so this
/// cannot change a reference run's reported optimum).
fn dive_probe(run: &mut NodeRun<'_, '_>, model: &Model, seed: Option<SolvedLp>) {
    let solved = match seed {
        Some((sol, dt)) => (LpOutcome::Optimal(sol), Some(dt)),
        None => cold_dive_tableau(run, model),
    };
    match solved {
        (LpOutcome::Optimal(sol), Some(dt)) => dive_from(run, model, dt, sol),
        (LpOutcome::Cancelled, _) => run.interrupted = true,
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Branching rules.
// ---------------------------------------------------------------------------

/// Most-fractional branching rule (fraction closest to one half): the
/// reference path's branching rule, where no dive tableau is available,
/// and the dive's pick of the variable to fix.
fn select_most_fractional(ctx: &Ctx<'_>, sol: &Solution) -> Option<(VarId, f64)> {
    let mut branch: Option<(VarId, f64)> = None;
    let mut best_dist_half = f64::INFINITY;
    for (i, &int) in ctx.integral.iter().enumerate() {
        if !int {
            continue;
        }
        let x = sol.values[i];
        if (x - x.round()).abs() <= INT_TOL {
            continue;
        }
        let dist_half = (x - x.floor() - 0.5).abs();
        if dist_half < best_dist_half {
            best_dist_half = dist_half;
            branch = Some((VarId(i as u32), x));
        }
    }
    branch
}

/// Probes one branching direction of `v` on a clone of the node's dive
/// tableau, recording the observed degradation into the node's local
/// pseudocost overlay. Returns the local estimate for the product score
/// (`NaN` = no usable estimate, `∞` = infeasible child).
#[expect(
    clippy::too_many_arguments,
    reason = "one probe needs the node run, its scratch and source tableaus, the model, and the child box with its scoring inputs"
)]
fn probe_dir(
    run: &mut NodeRun<'_, '_>,
    scratch: &mut Option<DiveTableau>,
    dt: &DiveTableau,
    work: &Model,
    v: VarId,
    child_lo: f64,
    child_hi: f64,
    frac: f64,
    up: bool,
    raw_score: f64,
) -> f64 {
    run.counters.lp_solves += 1;
    let p = match scratch {
        Some(p) => {
            p.clone_from(dt);
            p
        }
        // First probe of the node: a fresh clone doubles as the refill.
        empty => empty.insert(dt.clone()),
    };
    let before = p.work();
    let step = p.tighten_capped(&[(v, child_lo, child_hi)], work, SB_PIVOT_CAP);
    run.counters.charge_dive_work(p, before);
    match step {
        DiveStep::Optimal(s) => {
            let deg = (raw_score - run.ctx.dir * s.objective).max(0.0);
            run.record(v, up, deg / frac.max(INT_TOL));
            deg
        }
        // An infeasible child is the strongest possible branching signal
        // *at this node*, scored infinite locally. The store gets a
        // large-but-finite observation (8x the global average):
        // infeasibility depends on the node's bounds, so an infinite
        // average would poison the estimates — but recording nothing
        // would leave the direction unreliable forever, re-probing the
        // variable at every node where it is fractional. The biased-high
        // record keeps the "branching here tends to close a side" signal
        // while bounding total probes.
        DiveStep::Infeasible => {
            let avg = run.pc.global_avg();
            run.record(v, up, 8.0 * avg);
            f64::INFINITY
        }
        // A cancelled probe would be nondeterministic: the round is
        // aborted instead of committed.
        DiveStep::Cancelled => {
            run.interrupted = true;
            f64::NAN
        }
        DiveStep::Stalled => {
            // A cap-induced stall is deterministic: a neutral observation
            // (the store average) is recorded so the variable still
            // converges to reliable — otherwise every subsequent node
            // would re-probe it and pay the cap again.
            let avg = run.pc.global_avg();
            run.record(v, up, avg);
            f64::NAN
        }
    }
}

/// Pseudocost branching with strong-branching-lite reliability
/// initialization.
///
/// Every fractional candidate is scored by the product rule
/// `max(down_est, ε) · max(up_est, ε)`, where each directional estimate is
/// the expected objective degradation of that child (per-unit pseudocost ×
/// fractional distance). Candidates whose pseudocosts are not yet reliable
/// (fewer than [`PC_RELIABLE`] observations in either direction) are
/// initialized by probing both children on a **clone of the node's dive
/// tableau** — a bound tightening plus dual repair, no reinstall — with at
/// most [`SB_PER_NODE`] probes per node, most fractional first. The node
/// tableau's dual steepest-edge weights are primed before the first probe,
/// so the clones (and a scheduled dive from `dt`) inherit them; probe
/// degradations are recorded into the node's pseudocost log (replayed into
/// the shared store at commit), so each variable is probed only a bounded
/// number of times across the whole search. An infeasible probe direction
/// scores infinite (branching there closes a whole side). Directions with
/// no local probe and no reliable estimate fall back to the store average,
/// then to the global average. Reads only frozen round-start state plus
/// this node's own observations — deterministic at every thread count.
fn select_branch_pseudocost(
    run: &mut NodeRun<'_, '_>,
    work: &Model,
    dt: &mut DiveTableau,
    sol: &Solution,
    raw_score: f64,
) -> Option<(VarId, f64)> {
    // Fractional candidates: (var index, value, down fraction, up fraction).
    let mut cands: Vec<(usize, f64, f64, f64)> = Vec::new();
    for (i, &int) in run.ctx.integral.iter().enumerate() {
        if !int {
            continue;
        }
        let x = sol.values[i];
        if (x - x.round()).abs() <= INT_TOL {
            continue;
        }
        let fd = x - x.floor();
        cands.push((i, x, fd, 1.0 - fd));
    }
    if cands.is_empty() {
        return None;
    }

    // Strong-branching-lite probes for unreliable candidates, most
    // fractional first (deterministic order: distance to one half, then
    // index).
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        let da = (cands[a].2 - 0.5).abs();
        let db = (cands[b].2 - 0.5).abs();
        da.total_cmp(&db).then(cands[a].0.cmp(&cands[b].0))
    });
    // Local probe estimates (total degradation per direction); NaN = none.
    let mut local: Vec<(f64, f64)> = vec![(f64::NAN, f64::NAN); cands.len()];
    let mut probes = 0usize;
    // Probe scratch tableau, allocated on the first probe and refilled in
    // place by `clone_from` for every direction afterwards (zero
    // steady-state allocation on the branching hot path). Each refill
    // copies the node tableau's dual steepest-edge weights, primed once
    // before the first probe: otherwise every probe direction would repeat
    // the full-tableau weight scan on its own copy.
    let mut scratch: Option<DiveTableau> = None;
    for &ci in &order {
        if probes >= SB_PER_NODE {
            break;
        }
        let (i, x, fd, fu) = cands[ci];
        let v = VarId(i as u32);
        if run.pc.count(v, false) >= PC_RELIABLE && run.pc.count(v, true) >= PC_RELIABLE {
            continue;
        }
        if probes == 0 {
            dt.prime_dse();
        }
        probes += 1;
        run.counters.strong_branch_probes += 1;
        let (lo, hi) = dt.bounds(v);
        let fl = x.floor();
        let down = probe_dir(run, &mut scratch, dt, work, v, lo, fl, fd, false, raw_score);
        let up = probe_dir(
            run,
            &mut scratch,
            dt,
            work,
            v,
            fl + 1.0,
            hi,
            fu,
            true,
            raw_score,
        );
        local[ci] = (down, up);
        if run.interrupted {
            return None;
        }
    }

    // Product-rule scoring.
    let gavg = run.pc.global_avg();
    let mut best: Option<(f64, usize, bool)> = None;
    for (ci, &(i, _, fd, fu)) in cands.iter().enumerate() {
        let v = VarId(i as u32);
        let (ld, lu) = local[ci];
        let down_est = if ld.is_nan() {
            run.pc.avg(v, false).unwrap_or(gavg) * fd
        } else {
            ld
        };
        let up_est = if lu.is_nan() {
            run.pc.avg(v, true).unwrap_or(gavg) * fu
        } else {
            lu
        };
        let trusted = ld.is_nan()
            && lu.is_nan()
            && run.pc.count(v, false) >= PC_RELIABLE
            && run.pc.count(v, true) >= PC_RELIABLE;
        let score = down_est.max(PC_SCORE_EPS) * up_est.max(PC_SCORE_EPS);
        if best.is_none_or(|(bs, _, _)| score > bs) {
            best = Some((score, ci, trusted));
        }
    }
    let (_, ci, trusted) = best.expect("candidates are nonempty");
    if trusted {
        run.counters.pseudocost_branches += 1;
    }
    Some((VarId(cands[ci].0 as u32), cands[ci].1))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, Model, Sense, VarKind};

    #[test]
    fn integer_knapsack() {
        // max 10a + 6b + 4c s.t. a+b+c <= 100, 10a+4b+5c <= 600,
        // 2a+2b+6c <= 300, all integer >= 0. LP opt 733.33; ILP opt 732
        // (a=33, b=67): 10*33+4*67=330+268=598<=600; 33+67=100<=100;
        // 2*33+2*67=200<=300; obj=330+402=732.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", VarKind::Integer, 0.0, 1000.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 1000.0);
        let c = m.add_var("c", VarKind::Integer, 0.0, 1000.0);
        m.add_constraint(LinExpr::from(a) + b + c, Cmp::Le, 100.0);
        m.add_constraint(
            LinExpr::from(a) * 10.0 + (4.0, b) + (5.0, c),
            Cmp::Le,
            600.0,
        );
        m.add_constraint(LinExpr::from(a) * 2.0 + (2.0, b) + (6.0, c), Cmp::Le, 300.0);
        m.set_objective(LinExpr::from(a) * 10.0 + (6.0, b) + (4.0, c));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert!(s.stats.proven_optimal);
        assert_eq!(s.objective.round() as i64, 732);
    }

    #[test]
    fn binary_knapsack_matches_brute_force() {
        let weights = [4.0, 3.0, 5.0, 2.0, 7.0, 1.0];
        let values = [7.0, 4.0, 9.0, 3.0, 10.0, 1.0];
        let cap = 10.0;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(format!("b{i}"), VarKind::Binary, 0.0, 1.0))
            .collect();
        let mut wexpr = LinExpr::new();
        let mut vexpr = LinExpr::new();
        for i in 0..6 {
            wexpr = wexpr + (weights[i], vars[i]);
            vexpr = vexpr + (values[i], vars[i]);
        }
        m.add_constraint(wexpr, Cmp::Le, cap);
        m.set_objective(vexpr);
        let s = solve(&m, &MilpConfig::default()).unwrap();

        let mut best = 0.0f64;
        for mask in 0u32..64 {
            let w: f64 = (0..6)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| weights[i])
                .sum();
            if w <= cap {
                let v: f64 = (0..6)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| values[i])
                    .sum();
                best = best.max(v);
            }
        }
        assert_eq!(s.objective.round(), best);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
    }

    #[test]
    fn infeasible_integer_model() {
        // 2x = 1 with x integer
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        m.add_constraint(LinExpr::from(x) * 2.0, Cmp::Eq, 1.0);
        m.set_objective(LinExpr::from(x));
        assert_eq!(
            solve(&m, &MilpConfig::default()).unwrap_err(),
            MilpError::Infeasible
        );
    }

    #[test]
    fn minimize_with_binaries() {
        // min x + y + z s.t. x + y >= 1, y + z >= 1, x + z >= 1 (vertex cover
        // of a triangle): optimum 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        let z = m.add_var("z", VarKind::Binary, 0.0, 1.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 1.0);
        m.add_constraint(LinExpr::from(y) + z, Cmp::Ge, 1.0);
        m.add_constraint(LinExpr::from(x) + z, Cmp::Ge, 1.0);
        m.set_objective(LinExpr::from(x) + y + z);
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 2);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max y + 0.5 t, y binary gate: t <= 10 y, t <= 7.3; optimum y=1, t=7.3
        let mut m = Model::new(Sense::Maximize);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        let t = m.add_var("t", VarKind::Continuous, 0.0, 100.0);
        m.add_constraint(LinExpr::from(t) + (-10.0, y), Cmp::Le, 0.0);
        m.add_constraint(LinExpr::from(t), Cmp::Le, 7.3);
        m.set_objective(LinExpr::from(y) + (0.5, t));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert!(
            (s.objective - (1.0 + 3.65)).abs() < 1e-5,
            "got {}",
            s.objective
        );
        assert!((s.values[1] - 7.3).abs() < 1e-5);
    }

    #[test]
    fn budget_exhaustion_reports() {
        let mut m = Model::new(Sense::Maximize);
        // A model needing at least one node more than the budget of 0: the
        // root diving probe still finds an incumbent, which is returned as
        // a best-effort solution with the optimality proof surrendered.
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        m.add_constraint(LinExpr::from(x) * 2.0, Cmp::Le, 7.0);
        m.set_objective(LinExpr::from(x));
        let cfg = MilpConfig {
            node_limit: 0,
            ..MilpConfig::default()
        };
        let s = solve(&m, &cfg).unwrap();
        assert!(!s.stats.proven_optimal);
        assert_eq!(s.stats.nodes, 0);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
        // The surrendered proof still comes with a sound dual bound: the
        // true optimum (x = 3) lies between incumbent and bound.
        assert!(
            s.objective <= 3.0 + 1e-9 && s.stats.dual_bound >= 3.0 - 1e-9,
            "objective {} / dual bound {}",
            s.objective,
            s.stats.dual_bound
        );
    }

    fn knapsack_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", VarKind::Integer, 0.0, 1000.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 1000.0);
        let c = m.add_var("c", VarKind::Integer, 0.0, 1000.0);
        m.add_constraint(LinExpr::from(a) + b + c, Cmp::Le, 100.0);
        m.add_constraint(
            LinExpr::from(a) * 10.0 + (4.0, b) + (5.0, c),
            Cmp::Le,
            600.0,
        );
        m.add_constraint(LinExpr::from(a) * 2.0 + (2.0, b) + (6.0, c), Cmp::Le, 300.0);
        m.set_objective(LinExpr::from(a) * 10.0 + (6.0, b) + (4.0, c));
        m
    }

    #[test]
    fn proven_solve_reports_tight_dual_bound() {
        let s = solve(&knapsack_model(), &MilpConfig::default()).unwrap();
        assert!(s.stats.proven_optimal);
        assert!(
            (s.stats.dual_bound - s.objective).abs() < 1e-9,
            "proven: bound {} must equal objective {}",
            s.stats.dual_bound,
            s.objective
        );
    }

    #[test]
    fn pre_cancelled_solve_stops_without_incumbent() {
        // A token tripped before the search starts: the root dive bails at
        // its first check and the first node interrupts the pool — no
        // incumbent exists, which surfaces as BudgetExhausted (the service
        // layer maps it to the `timeout` wire code).
        let cancel = Cancel::new();
        cancel.cancel();
        let cfg = MilpConfig {
            cancel,
            ..MilpConfig::default()
        };
        assert!(matches!(
            solve(&knapsack_model(), &cfg),
            Err(MilpError::BudgetExhausted)
        ));
    }

    #[test]
    fn interrupted_search_brackets_the_true_optimum() {
        // Stop almost immediately via the node budget: the incumbent (from
        // the root dive) and the abandoned-node dual bound must bracket the
        // optimum of a full solve, and the proof must be surrendered. The
        // wide model's tree is larger than one round, so a two-node budget
        // interrupts it.
        let m = wide_model();
        let full = solve(&m, &MilpConfig::default()).unwrap();
        assert!(full.stats.proven_optimal && full.stats.nodes > BATCH);
        let cfg = MilpConfig {
            node_limit: 2,
            ..MilpConfig::default()
        };
        let s = solve(&m, &cfg).unwrap();
        assert!(!s.stats.proven_optimal);
        assert!(
            s.objective <= full.objective + 1e-9,
            "incumbent {}",
            s.objective
        );
        assert!(
            s.stats.dual_bound >= full.objective - 1e-9,
            "dual bound {} must stay above the optimum {}",
            s.stats.dual_bound,
            full.objective
        );
    }

    #[test]
    fn cancel_mid_search_keeps_soundness() {
        // Deterministic mid-search interruption via the poll countdown:
        // whenever it trips, the result must be a feasible point whose
        // objective and dual bound bracket the optimum — or, if the search
        // finished first, the proven optimum itself.
        for polls in [1, 2, 4, 16] {
            let cfg = MilpConfig {
                cancel: Cancel::after_polls(polls),
                ..MilpConfig::default()
            };
            let m = knapsack_model();
            match solve(&m, &cfg) {
                Ok(s) => {
                    assert!(m.check_feasible(&s.values, 1e-6).is_ok());
                    assert!(s.objective <= 732.0 + 1e-9);
                    assert!(s.stats.dual_bound >= 732.0 - 1e-9);
                    if s.stats.proven_optimal {
                        assert_eq!(s.objective.round() as i64, 732);
                    }
                }
                Err(e) => assert_eq!(e, MilpError::BudgetExhausted),
            }
        }
    }

    #[test]
    fn warm_starts_are_exercised() {
        // Any branching model's scheduled dives re-solve on a live tableau.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 9.0))
            .collect();
        let mut e = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e = e + ((i % 3 + 2) as f64, v);
            obj = obj + ((i % 5 + 1) as f64, v);
        }
        m.add_constraint(e, Cmp::Le, 37.5);
        m.set_objective(obj);
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert!(s.stats.proven_optimal);
        assert!(
            s.stats.dive_steps > 0,
            "expected warm-started child solves, stats: {:?}",
            s.stats
        );
    }

    #[test]
    fn infeasible_rounding_leaf_is_rejected() {
        // Regression: the integral-leaf incumbent path was guarded only by
        // a `debug_assert!` — in release builds an infeasible rounding
        // became the reported optimum. The LP optimum x = 0.9999995 of
        // `10⁷·x ≤ 10⁷ − 5` lies within the integrality tolerance of 1, so
        // the root dive and node 0 both take it as integral; its rounding
        // x = 1 breaks the scaled row by 5. x is a general integer, not a
        // binary, so no cover cut applies, and a Gomory cut skips a value
        // this close to an integer: the relaxation reaches the leaf as is.
        // Both gates must reject the rounding, and with nothing fractional
        // left to branch on the search surrenders the proof.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 5.0);
        m.add_constraint(LinExpr::from(x) * 1e7, Cmp::Le, 1e7 - 5.0);
        m.set_objective(LinExpr::from(x));
        match solve(&m, &MilpConfig::default()) {
            Err(MilpError::Numerical) => {}
            Ok(s) => panic!(
                "reported x = {:?} (feasible: {:?})",
                s.values,
                m.check_feasible(&s.values, 1e-6)
            ),
            Err(e) => panic!("expected the leaf to surrender the proof, got {e}"),
        }
    }

    #[test]
    fn pseudocost_engine_reports_stats() {
        // A branching model: the first nodes have unreliable pseudocosts,
        // so strong-branching-lite probes must fire.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 9.0))
            .collect();
        let mut e = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e = e + ((i % 3 + 2) as f64, v);
            obj = obj + ((i % 5 + 1) as f64, v);
        }
        m.add_constraint(e, Cmp::Le, 37.5);
        m.set_objective(obj);
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert!(s.stats.proven_optimal);
        assert!(
            s.stats.nodes <= 1 || s.stats.strong_branch_probes > 0,
            "branching without reliable pseudocosts must probe, stats: {:?}",
            s.stats
        );

        // The reference path has no node tableau to probe: it branches
        // most-fractional, reaches the same objective, and never touches
        // the probe counters.
        let off = solve(
            &m,
            &MilpConfig {
                reference_lp: true,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(off.objective.round() as i64, s.objective.round() as i64);
        assert_eq!(off.stats.strong_branch_probes, 0);
        assert_eq!(off.stats.pseudocost_branches, 0);
    }

    /// A 10-variable, 6-constraint model whose search tree has plenty of
    /// nodes — the workhorse for thread-invariance tests.
    fn wide_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 6.0))
            .collect();
        for k in 0..6 {
            let mut e = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                e = e + (((i * 7 + k * 11) % 5 + 1) as f64, v);
            }
            m.add_constraint(e, Cmp::Le, (35 + 3 * k) as f64);
        }
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj = obj + (((i * 13) % 7 + 1) as f64, v);
        }
        m.set_objective(obj);
        m
    }

    #[test]
    fn thread_count_does_not_change_objective() {
        // A search tree with plenty of nodes; every thread count must agree.
        let m = wide_model();
        let reference = solve(&m, &MilpConfig::default()).unwrap();
        assert!(reference.stats.proven_optimal);
        for threads in [2, 3, 4, 8] {
            let s = solve(&m, &MilpConfig::with_threads(threads)).unwrap();
            assert!(s.stats.proven_optimal);
            assert_eq!(
                s.objective.round() as i64,
                reference.objective.round() as i64,
                "threads={threads} changed the objective"
            );
            assert!(m.check_feasible(&s.values, 1e-6).is_ok());
        }
    }

    #[test]
    fn parallel_minimization_agrees_too() {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..9)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 5.0))
            .collect();
        for k in 0..5 {
            let mut e = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                e = e + (((i + k) % 4 + 1) as f64, v);
            }
            m.add_constraint(e, Cmp::Ge, (12 + k) as f64);
        }
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj = obj + ((i % 3 + 1) as f64, v);
        }
        m.set_objective(obj);
        let seq = solve(&m, &MilpConfig::default()).unwrap();
        let par = solve(&m, &MilpConfig::with_threads(4)).unwrap();
        assert!(seq.stats.proven_optimal && par.stats.proven_optimal);
        assert_eq!(seq.objective.round() as i64, par.objective.round() as i64);
    }

    mod property {
        use super::super::*;
        use crate::{Cmp, LinExpr, Model, Sense, VarKind};
        use proptest::prelude::*;

        /// Exhaustive optimum over the integer box `[0, 4]³`.
        fn brute_force(cons: &[([i64; 3], i64)], obj: &[i64; 3], sense: Sense) -> Option<i64> {
            let mut best: Option<i64> = None;
            for x in 0i64..=4 {
                for y in 0i64..=4 {
                    for z in 0i64..=4 {
                        let feasible = cons
                            .iter()
                            .all(|(c, rhs)| c[0] * x + c[1] * y + c[2] * z <= *rhs);
                        if feasible {
                            let v = obj[0] * x + obj[1] * y + obj[2] * z;
                            best = Some(match (best, sense) {
                                (None, _) => v,
                                (Some(b), Sense::Maximize) => b.max(v),
                                (Some(b), Sense::Minimize) => b.min(v),
                            });
                        }
                    }
                }
            }
            best
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn milp_matches_brute_force(
                cons in proptest::collection::vec(
                    (proptest::array::uniform3(-3i64..=3), -5i64..=20), 1..4),
                obj in proptest::array::uniform3(-4i64..=4),
                maximize in any::<bool>(),
                threads in 1usize..=4,
            ) {
                let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
                let mut m = Model::new(sense);
                let vars: Vec<_> = (0..3)
                    .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
                    .collect();
                for (coefs, rhs) in &cons {
                    let mut e = LinExpr::new();
                    for (i, &c) in coefs.iter().enumerate() {
                        e = e + (c as f64, vars[i]);
                    }
                    m.add_constraint(e, Cmp::Le, *rhs as f64);
                }
                let mut o = LinExpr::new();
                for (i, &c) in obj.iter().enumerate() {
                    o = o + (c as f64, vars[i]);
                }
                m.set_objective(o);

                let expected = brute_force(&cons, &obj, sense);
                // The default engine and the reference-LP differential
                // must both match the brute force.
                let configs = [
                    MilpConfig::with_threads(threads),
                    MilpConfig {
                        reference_lp: true,
                        threads,
                        ..MilpConfig::default()
                    },
                ];
                for cfg in configs {
                    match solve(&m, &cfg) {
                        Ok(sol) => {
                            prop_assert!(sol.stats.proven_optimal);
                            let got = sol.objective.round() as i64;
                            prop_assert_eq!(Some(got), expected,
                                "solver {} vs brute force {:?} (cfg {:?})", got, expected, cfg);
                            prop_assert!(m.check_feasible(&sol.values, 1e-5).is_ok());
                        }
                        Err(MilpError::Infeasible) => {
                            prop_assert_eq!(expected, None, "solver claims infeasible");
                        }
                        Err(e) => prop_assert!(false, "unexpected solver error {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn integral_objective_rounding_still_optimal() {
        // LP bound is fractional; with rounding enabled the solver must not
        // cut off the true optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0);
        m.add_constraint(LinExpr::from(x) * 2.0 + (3.0, y), Cmp::Le, 12.0);
        m.set_objective(LinExpr::from(x) + (2.0, y));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        // best: y=4, x=0 -> 8
        assert_eq!(s.objective.round() as i64, 8);
    }

    #[test]
    fn fractional_objective_is_never_rounded() {
        // An objective taking half-integer values at integer points must
        // never have its dual bound rounded: the rounded bound would prune
        // the optimum and prove a wrong value. x₀, x₁ integer in [0, 4],
        // t continuous in [0, 5].
        let build = |sense, obj: [f64; 3], rows: &[([f64; 3], f64)]| {
            let mut m = Model::new(sense);
            let x0 = m.add_var("x0", VarKind::Integer, 0.0, 4.0);
            let x1 = m.add_var("x1", VarKind::Integer, 0.0, 4.0);
            let t = m.add_var("t", VarKind::Continuous, 0.0, 5.0);
            for &([a, b, c], rhs) in rows {
                m.add_constraint(LinExpr::from(x0) * a + (b, x1) + (c, t), Cmp::Le, rhs);
            }
            m.set_objective(LinExpr::from(x0) * obj[0] + (obj[1], x1) + (obj[2], t));
            m
        };
        let cases = [
            // max −2x₀ + 0.5x₁ + 2t: optimum 0.5 at (1, 1, 1).
            (
                build(
                    Sense::Maximize,
                    [-2.0, 0.5, 2.0],
                    &[
                        ([-3.0, 2.0, 1.0], 0.0),
                        ([1.0, 1.0, 0.0], 10.0),
                        ([2.0, 0.0, 3.0], 5.0),
                    ],
                ),
                0.5,
            ),
            // min x₀ + 0.5x₁ + t: optimum 0.5 at (0, 1, 0).
            (
                build(
                    Sense::Minimize,
                    [1.0, 0.5, 1.0],
                    &[
                        ([-2.0, -3.0, 0.0], -1.0),
                        ([2.0, 3.0, 2.0], 7.0),
                        ([-3.0, -3.0, -2.0], 12.0),
                    ],
                ),
                0.5,
            ),
        ];
        for (m, optimum) in cases {
            let s = solve(&m, &MilpConfig::default()).unwrap();
            assert!(s.stats.proven_optimal);
            assert!(
                (s.objective - optimum).abs() < 1e-6,
                "proved {} where the optimum is {optimum}",
                s.objective
            );
            assert!(m.check_feasible(&s.values, 1e-6).is_ok());
        }
    }

    #[test]
    fn trace_digest_and_node_count_are_thread_invariant() {
        // Not just the objective: the *entire explored tree* must be
        // identical at every thread count — node count, trace digest,
        // values, and every semantic counter.
        let m = wide_model();
        let reference = solve(&m, &MilpConfig::default()).unwrap();
        assert!(reference.stats.proven_optimal);
        assert!(reference.stats.nodes > BATCH, "want a multi-round search");
        for threads in [2, 4] {
            let s = solve(&m, &MilpConfig::with_threads(threads)).unwrap();
            assert_eq!(
                s.stats.nodes, reference.stats.nodes,
                "threads={threads} changed the node count"
            );
            assert_eq!(
                s.stats.trace_digest, reference.stats.trace_digest,
                "threads={threads} changed the explored-node sequence"
            );
            assert_eq!(s.objective, reference.objective);
            assert_eq!(s.values, reference.values);
            assert_eq!(s.stats.lp_solves, reference.stats.lp_solves);
            assert_eq!(
                s.stats.pseudocost_branches,
                reference.stats.pseudocost_branches
            );
            assert_eq!(
                s.stats.strong_branch_probes,
                reference.stats.strong_branch_probes
            );
        }
    }

    /// Two binary pairs, each capped at one: the root LP lands on an
    /// integral vertex (objective 2), so there is nothing to cut, and the
    /// cutoff row `Σx ≥ 3` is beyond what activity propagation can refute,
    /// so the depth-0 node does solve its relaxation.
    fn integral_root_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..4)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0))
            .collect();
        m.add_constraint(LinExpr::from(x[0]) + x[1], Cmp::Le, 1.0);
        m.add_constraint(LinExpr::from(x[2]) + x[3], Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x[0]) + x[1] + x[2] + x[3]);
        m
    }

    #[test]
    fn root_relaxation_is_solved_once_when_no_cut_is_kept() {
        // The cut loop's solve seeds the root dive and serves the depth-0
        // node: one LP for the whole proof, where the root dive and node 0
        // used to cold-solve the same relaxation twice more.
        let m = integral_root_model();
        let s = solve(&m, &MilpConfig::default()).unwrap();
        assert!(s.stats.proven_optimal);
        assert_eq!(s.stats.cut_rounds, 0);
        assert_eq!(s.stats.propagation_fathoms, 0, "node 0 must reach its LP");
        assert_eq!(s.stats.nodes, 1);
        assert_eq!(s.stats.lp_solves, 1, "stats: {:?}", s.stats);
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn root_tableau_is_rejected_when_node_zero_rounds_the_box() {
        // x keeps its fractional upper bound 2.5 in the cut loop's model,
        // while node 0 rounds it to 2: the cut loop's tableau (x = 2.5) is
        // not node 0's relaxation and must not stand in for it. Taking it
        // would branch on x; the cold solve lands on the integral optimum
        // x = 2, y = 3 at once.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 2.5);
        let y = m.add_var("y", VarKind::Integer, 0.0, 3.0);
        m.add_constraint(LinExpr::from(x) + (2.0, y), Cmp::Le, 10.0);
        m.set_objective(LinExpr::from(x) + y);
        let s = solve(&m, &MilpConfig::default()).unwrap();
        let brute = (0..=2)
            .flat_map(|x| (0..=3).map(move |y| (x, y)))
            .filter(|&(x, y)| x + 2 * y <= 10)
            .map(|(x, y)| x + y)
            .max()
            .unwrap();
        assert!(s.stats.proven_optimal);
        assert_eq!(s.objective, brute as f64);
        assert_eq!(s.stats.nodes, 1, "node 0 solved the unrounded box");
    }

    #[test]
    fn propagation_fathoms_row_infeasible_child_before_lp() {
        // Maximize 2x₀ + 3x₁ + x₂ under 2x₀ + x₁ + x₂ ≤ 7 on [0, 4]³: the
        // root cuts leave a fractional relaxation, so the root branches,
        // and once an incumbent exists the node-time objective-cutoff row
        // leaves one child's box empty: propagation must fathom it before
        // any LP (the counter ticks).
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..3)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
            .collect();
        m.add_constraint(
            LinExpr::from(x[0]) * 2.0 + (1.0, x[1]) + (1.0, x[2]),
            Cmp::Le,
            7.0,
        );
        m.set_objective(LinExpr::from(x[0]) * 2.0 + (3.0, x[1]) + (1.0, x[2]));
        let s = solve(&m, &MilpConfig::default()).unwrap();
        let brute = (0..=4)
            .flat_map(|a| (0..=4).flat_map(move |b| (0..=4).map(move |c| (a, b, c))))
            .filter(|&(a, b, c)| 2 * a + b + c <= 7)
            .map(|(a, b, c)| 2 * a + 3 * b + c)
            .max()
            .unwrap();
        assert!(s.stats.proven_optimal);
        assert_eq!(s.objective, brute as f64);
        assert!(s.stats.nodes > 1, "the root must branch: {:?}", s.stats);
        assert!(
            s.stats.propagation_fathoms >= 1,
            "a child must die in propagation, got {:?}",
            s.stats
        );
    }
}

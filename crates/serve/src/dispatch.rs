//! The single execution path behind every `rsat` front end.
//!
//! A [`Dispatcher`] owns one warm [`RsEngine`] and (optionally) a shared
//! [`MemoCache`]; [`Dispatcher::dispatch`] turns an [`RsRequest`] into an
//! [`RsResponse`], never panicking outward: engine panics are caught, the
//! engine is replaced, and the request answers `ok:false` with code
//! `panic`.

use crate::cache::MemoCache;
use crate::checkpoint::{CheckpointSlot, CheckpointStore};
use crate::fault::{FaultAction, FaultPlan};
use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::ilp::RsIlp;
use rs_core::model::{Ddg, RegType};
use rs_core::parse::{parse_ddg, print_ddg};
use rs_core::reduce::ReduceOutcome;
use rs_core::request::{
    codes, reg_type_from_name, reg_type_name, AllocResult, CacheInfo, IlpStats, ReduceResult,
    RsError, RsOp, RsRequest, RsResponse, RsResult, SolveResult, TypeResult,
};
use rs_core::spill::SpillPass;
use rs_core::RsEngine;
use rs_core::{Cancel, MilpError, SearchCheckpoint};
use rs_sched::{ListScheduler, RegisterAllocator, Resources};
use serde::Deserialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One worker's in-flight registration, shared with the pool watchdog.
///
/// While a deadline-carrying request executes, the dispatcher publishes
/// its cancel token and hard deadline here. The watchdog (one thread per
/// [`crate::pool::ServePool`]) sweeps all slots and force-cancels any
/// entry stuck past `deadline + grace` — covering code paths whose own
/// cooperative polls are too sparse (or an injected fault's sleep). A
/// forced cancel latches; the worker observes it after the request ends
/// and replaces its engine as a hygiene measure.
#[derive(Clone, Default)]
pub struct WatchSlot {
    inner: Arc<Mutex<WatchState>>,
}

#[derive(Default)]
struct WatchState {
    inflight: Option<(Cancel, Instant)>,
    forced: bool,
}

impl WatchSlot {
    /// Registers an in-flight request (only deadline-carrying requests
    /// are watchable; others pass `None` and are skipped).
    pub fn begin(&self, cancel: &Cancel, deadline: Option<Instant>) {
        if let Some(dl) = deadline {
            let mut st = crate::lock_recover(&self.inner);
            st.inflight = Some((cancel.clone(), dl));
        }
    }

    /// Ends the in-flight window (the forced flag stays latched).
    pub fn clear(&self) {
        crate::lock_recover(&self.inner).inflight = None;
    }

    /// Watchdog sweep: force-cancels an entry stuck past `deadline +
    /// grace`. Returns `true` when this sweep fired the cancel.
    pub fn check(&self, now: Instant, grace: Duration) -> bool {
        let mut st = crate::lock_recover(&self.inner);
        match &st.inflight {
            Some((cancel, dl)) if now > *dl + grace => {
                cancel.cancel();
                st.inflight = None; // fire once per request
                st.forced = true;
                true
            }
            _ => false,
        }
    }

    /// Consumes the forced-cancel latch (worker side, after a request).
    pub fn take_forced(&self) -> bool {
        let mut st = crate::lock_recover(&self.inner);
        std::mem::take(&mut st.forced)
    }
}

/// One warm worker: engine + optional shared cache + optional shared
/// checkpoint store.
pub struct Dispatcher {
    params: GreedyK,
    engine: RsEngine,
    cache: Option<Arc<MemoCache>>,
    ckpts: Option<Arc<CheckpointStore>>,
    faults: Option<Arc<FaultPlan>>,
    watch: Option<WatchSlot>,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Dispatcher {
    /// A cache-less dispatcher with default engine parameters (the one-shot
    /// CLI and corpus workers use this: every request computes cold).
    pub fn new() -> Self {
        Dispatcher {
            params: GreedyK::new(),
            engine: RsEngine::new(),
            cache: None,
            ckpts: None,
            faults: None,
            watch: None,
        }
    }

    /// Retains interrupted-search checkpoints in `store`, keyed by cache
    /// key, so retried requests resume instead of restarting (see
    /// [`CheckpointStore`]). Works with or without a result cache — the
    /// corpus runner uses a store on cache-less dispatchers.
    pub fn set_checkpoint_store(&mut self, store: Arc<CheckpointStore>) {
        self.ckpts = Some(store);
    }

    /// Injects faults per `plan` at this dispatcher's probe point (chaos
    /// testing; see [`FaultPlan`]).
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Registers this dispatcher's in-flight window with a pool watchdog.
    pub fn set_watch(&mut self, slot: WatchSlot) {
        self.watch = Some(slot);
    }

    /// Discards the (possibly mid-mutation) engine for a fresh one.
    pub fn replace_engine(&mut self) {
        self.engine = RsEngine::with_params(self.params.clone());
    }

    /// A dispatcher answering from (and filling) a shared memoization
    /// cache.
    pub fn with_cache(cache: Arc<MemoCache>) -> Self {
        Dispatcher {
            cache: Some(cache),
            ..Dispatcher::new()
        }
    }

    /// Cumulative cache counters (zeros without a cache).
    pub fn cache_counters(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |c| c.counters())
    }

    fn cache_info(&self, hit: bool) -> CacheInfo {
        let (hits, misses) = self.cache_counters();
        CacheInfo { hit, hits, misses }
    }

    /// Executes one request: validate, consult the cache, run the engine
    /// under panic containment, fill the cache.
    pub fn dispatch(&mut self, req: &RsRequest) -> RsResponse {
        self.dispatch_at(req, Instant::now())
    }

    /// [`Self::dispatch`] with an explicit arrival time: a request's
    /// `timeout_ms` deadline is anchored at `enqueued`, so queue wait
    /// counts against the budget. On expiry the engine and solvers cancel
    /// cooperatively and the response degrades to
    /// [`RsResponse::timeout`] — `ok:false`, code `timeout`, best partial
    /// result attached. Degraded results are never cached.
    pub fn dispatch_at(&mut self, req: &RsRequest, enqueued: Instant) -> RsResponse {
        let start = Instant::now();
        let id = req.id.clone();
        if let Err(e) = req.validate() {
            return RsResponse::failure(id, e, self.cache_info(false), millis_since(start));
        }
        // The canonical key does double duty: memoization (only when the
        // request allows caching) and checkpoint retention (whenever a
        // store is attached — also for cache-disabled requests, since
        // resuming never replays a stale result, it only continues exact
        // work from a saved frontier).
        let memo = self.cache.is_some() && req.cache;
        let key = if memo || self.ckpts.is_some() {
            Some(req.cache_key())
        } else {
            None
        };
        if memo {
            if let (Some(cache), Some(key)) = (&self.cache, &key) {
                if let Some(result) = cache.lookup(key) {
                    return RsResponse::success(
                        id,
                        result,
                        self.cache_info(true),
                        millis_since(start),
                    );
                }
            }
        }
        // A retried request takes its predecessor's interrupted-search
        // snapshots before executing; the solvers below continue from
        // them node-for-node.
        let resume_slots = match (&self.ckpts, &key) {
            (Some(store), Some(key)) => store.take(key).unwrap_or_default(),
            _ => Vec::new(),
        };
        let mut harvested: Vec<CheckpointSlot> = Vec::new();
        let deadline = req
            .timeout_ms
            .map(|ms| enqueued + Duration::from_millis(ms));
        let cancel = match deadline {
            Some(dl) => Cancel::with_deadline(dl),
            None => Cancel::new(),
        };
        self.engine.set_cancel(cancel.clone());
        if let Some(w) = &self.watch {
            w.begin(&cancel, deadline);
        }
        let fault = self.faults.as_ref().map_or(FaultAction::None, |p| p.next());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                FaultAction::None => {}
                FaultAction::Panic => panic!("injected fault: panic"),
                FaultAction::Error => {
                    return Err(RsError::new(codes::ENGINE, "injected fault: engine error"));
                }
                FaultAction::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            }
            execute(
                &mut self.engine,
                req,
                &cancel,
                &resume_slots,
                &mut harvested,
            )
        }));
        if let Some(w) = &self.watch {
            w.clear();
        }
        self.engine.clear_cancel();
        // Park whatever the solvers left unfinished — on timeouts *and* on
        // `ok` answers whose search hit a node budget — so the next retry
        // of this request continues instead of restarting. This is also
        // the watchdog-salvage path: a force-cancelled solve still returns
        // cooperatively, and its checkpoint lands here.
        if let (Some(store), Some(key)) = (&self.ckpts, &key) {
            if !harvested.is_empty() {
                store.put(key.clone(), harvested);
            }
        }
        match outcome {
            Ok(Ok(result)) => {
                // Timeout is decided by the token, not the wall clock: the
                // flag latches only when some loop actually observed the
                // expired deadline and cut work short, so an untouched
                // result that merely finished late still answers `ok`.
                if cancel.is_set() {
                    let e = RsError::new(
                        codes::TIMEOUT,
                        format!(
                            "deadline of {} ms expired; best partial result attached",
                            req.timeout_ms.unwrap_or(0)
                        ),
                    );
                    return RsResponse::timeout(
                        id,
                        e,
                        result,
                        self.cache_info(false),
                        millis_since(start),
                    );
                }
                if memo {
                    if let (Some(cache), Some(key)) = (&self.cache, key) {
                        cache.insert(key, &result);
                    }
                }
                RsResponse::success(id, result, self.cache_info(false), millis_since(start))
            }
            Ok(Err(e)) => RsResponse::failure(id, e, self.cache_info(false), millis_since(start)),
            Err(payload) => {
                // The engine scratch may be mid-mutation: replace it, keep
                // serving.
                self.replace_engine();
                let e = RsError::new(
                    codes::PANIC,
                    format!("engine panicked: {}", panic_message(&payload)),
                );
                RsResponse::failure(id, e, self.cache_info(false), millis_since(start))
            }
        }
    }
}

fn millis_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Decodes one newline-delimited JSON request line and dispatches it.
///
/// Returns the response and its serialized JSON line. A line that is not
/// valid JSON, or not a valid request object, yields an `ok:false` response
/// with code `request` — the caller (daemon, corpus) keeps going.
pub fn process_line(dispatcher: &mut Dispatcher, line: &str) -> (RsResponse, String) {
    process_line_at(dispatcher, line, Instant::now())
}

/// [`process_line`] with an explicit enqueue time. A request whose entire
/// `timeout_ms` budget was consumed waiting in the queue is *shed*: it
/// answers `ok:false` with code `overloaded` without executing, so a
/// backlogged server degrades by dropping stale work instead of burning
/// workers on answers nobody is still waiting for.
pub fn process_line_at(
    dispatcher: &mut Dispatcher,
    line: &str,
    enqueued: Instant,
) -> (RsResponse, String) {
    let response = match serde_json::from_str(line) {
        Err(e) => RsResponse::failure(
            None,
            RsError::new(codes::REQUEST, format!("malformed request JSON: {e}")),
            dispatcher.cache_info(false),
            0.0,
        ),
        Ok(value) => match rs_core::request::RsRequest::from_value(&value) {
            Err(e) => {
                // Best effort: echo the id even when the request is invalid.
                let id = value.get("id").and_then(|v| v.as_str()).map(str::to_string);
                RsResponse::failure(
                    id,
                    RsError::new(codes::REQUEST, format!("invalid request: {e}")),
                    dispatcher.cache_info(false),
                    0.0,
                )
            }
            Ok(req) => {
                let waited = enqueued.elapsed();
                match req.timeout_ms {
                    Some(ms) if waited >= Duration::from_millis(ms) => RsResponse::failure(
                        req.id.clone(),
                        RsError::new(
                            codes::OVERLOADED,
                            format!(
                                "shed before execution: queued {} ms against a {ms} ms deadline",
                                waited.as_millis()
                            ),
                        ),
                        dispatcher.cache_info(false),
                        0.0,
                    ),
                    _ => dispatcher.dispatch_at(&req, enqueued),
                }
            }
        },
    };
    // Derive-generated serialization of an owned response cannot fail; if
    // it ever does, degrade to a hand-built error line — the request loop
    // must answer something rather than panic (lint rule S-01).
    let json = serde_json::to_string(&response).unwrap_or_else(|e| {
        let msg = format!("response serialization failed: {e}");
        let quoted =
            serde_json::to_string(&msg).unwrap_or_else(|_| "\"serialization failed\"".into());
        format!(
            "{{\"v\":{},\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":{quoted}}}}}",
            rs_core::request::PROTOCOL_VERSION,
            rs_core::request::codes::PANIC,
        )
    });
    (response, json)
}

/// Runs the validated request against the engine.
///
/// `resume` carries named checkpoints from an earlier interrupted attempt
/// of this request; solvers that find their slot continue from it.
/// Interrupted solves deposit fresh checkpoints into `harvest`.
fn execute(
    engine: &mut RsEngine,
    req: &RsRequest,
    cancel: &Cancel,
    resume: &[CheckpointSlot],
    harvest: &mut Vec<CheckpointSlot>,
) -> Result<RsResult, RsError> {
    let mut ddg = parse_ddg(&req.ddg).map_err(|e| RsError::new(codes::PARSE, e.to_string()))?;
    let types: Vec<RegType> = match req.reg_type.as_deref() {
        Some(name) => vec![reg_type_from_name(name).ok_or_else(|| {
            RsError::new(codes::REQUEST, format!("unknown register type `{name}`"))
        })?],
        None => ddg.reg_types(),
    };
    let mut result = RsResult {
        ops: ddg.num_ops(),
        edges: ddg.graph().edge_count(),
        critical_path: ddg.critical_path(),
        types: Vec::new(),
        makespan: None,
        ddg_out: None,
    };
    match req.op {
        RsOp::Analyze => {
            for &t in &types {
                result
                    .types
                    .push(analyze_type(engine, &ddg, t, req, cancel, resume, harvest));
            }
        }
        RsOp::Reduce => {
            let budget = req.registers.ok_or_else(missing_budget)?;
            for &t in &types {
                result
                    .types
                    .push(reduce_type(engine, &mut ddg, t, budget, req.spill)?);
            }
            if req.emit_ddg {
                result.ddg_out = Some(print_ddg(&ddg));
            }
        }
        RsOp::Pipeline => {
            let budget = req.registers.ok_or_else(missing_budget)?;
            let resources = match req.issue {
                None | Some(4) => Resources::four_issue(),
                Some(1) => Resources::single_issue(),
                Some(8) => Resources::wide_issue(),
                Some(w) => {
                    return Err(RsError::new(
                        codes::REQUEST,
                        format!("unsupported issue width {w} (want 1, 4, or 8)"),
                    ))
                }
            };
            for &t in &types {
                result
                    .types
                    .push(reduce_type(engine, &mut ddg, t, budget, false)?);
            }
            let all_fit = result
                .types
                .iter()
                .all(|tr| tr.reduce.as_ref().is_some_and(|r| r.fits));
            if all_fit {
                let sched = ListScheduler::new(resources).schedule(&ddg);
                result.makespan = Some(sched.makespan);
                for (tr, &t) in result.types.iter_mut().zip(&types) {
                    let alloc = RegisterAllocator::new().allocate(&ddg, t, &sched.sigma, budget);
                    tr.alloc = Some(AllocResult {
                        registers_used: alloc.registers_used,
                        spills: alloc.spilled.len(),
                    });
                }
            }
            if req.emit_ddg {
                result.ddg_out = Some(print_ddg(&ddg));
            }
        }
    }
    Ok(result)
}

/// Validation guarantees a budget for reduce/pipeline, but requests built
/// programmatically can reach [`execute`] unvalidated — answer typed
/// (code `request`) instead of panicking the worker.
fn missing_budget() -> RsError {
    RsError::new(codes::REQUEST, "reduce requires a register budget")
}

#[allow(clippy::too_many_arguments)]
fn analyze_type(
    engine: &mut RsEngine,
    ddg: &Ddg,
    t: RegType,
    req: &RsRequest,
    cancel: &Cancel,
    resume: &[CheckpointSlot],
    harvest: &mut Vec<CheckpointSlot>,
) -> TypeResult {
    let threads = req.threads.max(1);
    let a = engine.analyze(ddg, t);
    let saturating = a
        .saturating_values
        .iter()
        .map(|&v| ddg.graph().node(v).name.clone())
        .collect();
    let mut tr = TypeResult {
        reg_type: reg_type_name(t),
        values: ddg.values(t).len(),
        saturation: a.saturation,
        saturating,
        optimal: a.provably_optimal,
        exact: None,
        ilp: None,
        ilp_stats: None,
        ilp_error: None,
        reduce: None,
        alloc: None,
    };
    if req.exact {
        let mut solver = ExactRs::with_threads(threads);
        solver.cancel = cancel.clone();
        let e = solver.saturation(ddg, t);
        tr.exact = Some(SolveResult {
            saturation: e.saturation,
            proven_optimal: e.proven_optimal,
            bound: if e.proven_optimal {
                None
            } else {
                Some(e.upper_bound)
            },
            resume: None,
            resumed: false,
        });
    }
    if req.ilp {
        let mut solver = RsIlp::with_threads(threads);
        solver.milp.cancel = cancel.clone();
        if let Some(audit) = req.audit {
            solver.milp.audit = audit;
        }
        // The per-request checkpoint slot for this solver is the register
        // type name: each interrupted intLP resumes its own frontier.
        let slot = reg_type_name(t);
        let prior = resume
            .iter()
            .find(|(name, _)| name == &slot)
            .and_then(|(_, json)| SearchCheckpoint::from_json(json).ok());
        let run = solver.saturation_resumable(ddg, t, prior.as_ref());
        // The resume token surfaced to clients is the checkpoint JSON
        // itself — opaque to them, exact to us. The same snapshot is
        // harvested into the dispatcher's store so a plain retry resumes
        // even when the client dropped the token.
        let token = run.checkpoint.as_ref().map(|ck| ck.to_json());
        if let Some(json) = token.clone() {
            harvest.push((slot, json));
        }
        match run.result {
            Ok(r) => {
                tr.ilp = Some(SolveResult {
                    saturation: r.saturation,
                    proven_optimal: r.proven_optimal,
                    bound: if r.proven_optimal {
                        None
                    } else {
                        Some(r.upper_bound)
                    },
                    resume: token,
                    resumed: r.milp_stats.resumed,
                });
                if req.stats {
                    let st = &r.milp_stats;
                    tr.ilp_stats = Some(IlpStats {
                        nodes: st.nodes,
                        lp_solves: st.lp_solves,
                        warm_solves: st.warm_solves,
                        warm_hits: st.warm_hits,
                        pseudocost_branches: st.pseudocost_branches,
                        strong_branch_probes: st.strong_branch_probes,
                        pivots: st.pivots,
                        dse_pivots: st.dse_pivots,
                        bound_flips: st.bound_flips,
                        cuts_added: st.cuts_added,
                        cut_rounds: st.cut_rounds,
                        propagation_fathoms: st.propagation_fathoms,
                        rows: st.rows,
                        cols: st.cols,
                        trace_digest: st.trace_digest,
                        audited: st.audited,
                    });
                }
            }
            // Budget/deadline exhaustion without any incumbent is a
            // degradation, not an engine fault: type it `timeout` so
            // clients (and the CLI) render "interrupted" instead of a
            // fatal solver error. Genuine solver faults keep `engine`.
            Err(MilpError::BudgetExhausted) => {
                tr.ilp_error = Some(RsError::new(
                    codes::TIMEOUT,
                    "intLP interrupted before any incumbent was found",
                ));
            }
            // Audit rejections are a property of the submitted model or
            // resume state, not an engine fault: type them `request` so
            // clients see *their* input (or retained checkpoint) was bad.
            Err(MilpError::Audit(a)) => {
                tr.ilp_error = Some(RsError::new(
                    codes::REQUEST,
                    format!("rejected by pre-solve audit: {a}"),
                ));
            }
            Err(e) => tr.ilp_error = Some(RsError::new(codes::ENGINE, e.to_string())),
        }
    }
    tr
}

/// Reduces one type in place, optionally spilling when serialization alone
/// cannot meet the budget. An unmeetable budget is *not* an `Err` — it
/// reports `fits: false` so batch clients see partial results; front ends
/// decide whether that is fatal.
fn reduce_type(
    engine: &mut RsEngine,
    ddg: &mut Ddg,
    t: RegType,
    budget: usize,
    spill: bool,
) -> Result<TypeResult, RsError> {
    let values = ddg.values(t).len();
    let cp_before = ddg.critical_path();
    let out = engine.reduce(ddg, t, budget);
    let (saturation, reduce) = match out {
        ReduceOutcome::AlreadyFits { rs } => (
            rs,
            ReduceResult {
                budget,
                rs_after: rs,
                arcs_added: 0,
                cp_before,
                cp_after: cp_before,
                fits: true,
                spilled: Vec::new(),
            },
        ),
        ReduceOutcome::Reduced {
            rs_before,
            rs_after,
            cp_before,
            cp_after,
            added_arcs,
            ..
        } => (
            rs_before,
            ReduceResult {
                budget,
                rs_after,
                arcs_added: added_arcs.len(),
                cp_before,
                cp_after,
                fits: true,
                spilled: Vec::new(),
            },
        ),
        ReduceOutcome::Failed {
            rs_before,
            best_rs,
            cp_after,
            added_arcs,
        } => {
            let spilled = if spill {
                SpillPass::new().spill_to_fit(ddg, t, budget)
            } else {
                None
            };
            match spilled {
                Some(res) => {
                    *ddg = res.ddg;
                    (
                        rs_before,
                        ReduceResult {
                            budget,
                            rs_after: res.rs_after,
                            arcs_added: res.reduction_arcs,
                            cp_before,
                            cp_after: ddg.critical_path(),
                            fits: true,
                            spilled: res.spilled_values,
                        },
                    )
                }
                None => (
                    rs_before,
                    ReduceResult {
                        budget,
                        rs_after: best_rs,
                        arcs_added: added_arcs.len(),
                        cp_before,
                        cp_after,
                        fits: false,
                        spilled: Vec::new(),
                    },
                ),
            }
        }
    };
    Ok(TypeResult {
        reg_type: reg_type_name(t),
        values,
        saturation,
        saturating: Vec::new(),
        optimal: false,
        exact: None,
        ilp: None,
        ilp_stats: None,
        ilp_error: None,
        reduce: Some(reduce),
        alloc: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAINS: &str = "op a load float\nop sa store none\nflow a sa 4 float\n\
                          op b load float\nop sb store none\nflow b sb 4 float\n\
                          op c load float\nop sc store none\nflow c sc 4 float\n\
                          op d load float\nop sd store none\nflow d sd 4 float\n";

    #[test]
    fn analyze_reports_saturation() {
        let mut d = Dispatcher::new();
        let resp = d.dispatch(&RsRequest::new(RsOp::Analyze, CHAINS));
        assert!(resp.ok, "{:?}", resp.error);
        let result = resp.result.unwrap();
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        assert_eq!(float.saturation, 4);
        assert_eq!(float.saturating.len(), 4);
    }

    #[test]
    fn reduce_meets_budget_and_emits_ddg() {
        let mut d = Dispatcher::new();
        let mut req = RsRequest::new(RsOp::Reduce, CHAINS);
        req.registers = Some(2);
        req.emit_ddg = true;
        let resp = d.dispatch(&req);
        assert!(resp.ok, "{:?}", resp.error);
        let result = resp.result.unwrap();
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        let red = float.reduce.as_ref().unwrap();
        assert!(red.fits);
        assert!(red.rs_after <= 2);
        assert!(red.arcs_added > 0);
        let out = result.ddg_out.as_deref().expect("emit_ddg");
        assert!(parse_ddg(out).is_ok(), "emitted DDG re-parses");
    }

    #[test]
    fn infeasible_reduce_reports_fits_false_not_error() {
        let two_into_one = "op l1 load float\nop l2 load float\nop add falu float\n\
                            op st store none\nflow l1 add 4 float\nflow l2 add 4 float\n\
                            flow add st 3 float\n";
        let mut d = Dispatcher::new();
        let mut req = RsRequest::new(RsOp::Reduce, two_into_one);
        req.registers = Some(1);
        let resp = d.dispatch(&req);
        assert!(resp.ok);
        let result = resp.result.unwrap();
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        assert!(!float.reduce.as_ref().unwrap().fits);
    }

    #[test]
    fn parse_failures_carry_the_parse_code() {
        let mut d = Dispatcher::new();
        let resp = d.dispatch(&RsRequest::new(
            RsOp::Analyze,
            "op a load float\nflow a ghost 1 float\n",
        ));
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.code, codes::PARSE);
        assert!(err.message.contains("line 2"), "{}", err.message);
    }

    #[test]
    fn pipeline_schedules_and_allocates() {
        let mut d = Dispatcher::new();
        let mut req = RsRequest::new(RsOp::Pipeline, CHAINS);
        req.registers = Some(4);
        let resp = d.dispatch(&req);
        assert!(resp.ok, "{:?}", resp.error);
        let result = resp.result.unwrap();
        assert!(result.makespan.is_some());
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        let alloc = float.alloc.unwrap();
        assert!(alloc.registers_used <= 4);
        assert_eq!(alloc.spills, 0);
    }

    #[test]
    fn cache_hit_is_bit_identical_to_cold_result() {
        let cache = Arc::new(MemoCache::with_capacity(16));
        let mut d = Dispatcher::with_cache(cache);
        let req = RsRequest::new(RsOp::Analyze, CHAINS);
        let cold = d.dispatch(&req);
        let warm = d.dispatch(&req);
        assert!(!cold.cache.hit);
        assert!(warm.cache.hit);
        assert_eq!(warm.cache.hits, 1);
        assert_eq!(
            serde_json::to_string(&warm.result).unwrap(),
            serde_json::to_string(&cold.result).unwrap(),
            "hit result must be bit-identical to the cold result"
        );
    }

    #[test]
    fn expired_deadline_degrades_to_timeout_with_partial_result() {
        let mut d = Dispatcher::new();
        // Reduce polls the token every serialization step, so an
        // already-expired deadline trips on the first step. (An analyze
        // that proves optimality before any poll still answers `ok` —
        // timeout is decided by the token, not the wall clock.)
        let mut req = RsRequest::new(RsOp::Reduce, CHAINS);
        req.registers = Some(2);
        req.timeout_ms = Some(0); // expired on arrival: every poll trips
        let resp = d.dispatch(&req);
        assert!(!resp.ok);
        assert_eq!(resp.error.as_ref().unwrap().code, codes::TIMEOUT);
        let result = resp.result.expect("timeout keeps the partial result");
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        assert!(float.saturation >= 1, "partial result reports the RS seen");
        let red = float.reduce.as_ref().expect("partial reduce attached");
        assert!(!red.fits, "interrupted reduction reports fits:false");
    }

    #[test]
    fn fast_requests_with_generous_deadlines_still_answer_ok() {
        let mut d = Dispatcher::new();
        let mut req = RsRequest::new(RsOp::Analyze, CHAINS);
        req.timeout_ms = Some(60_000);
        let resp = d.dispatch(&req);
        assert!(resp.ok, "{:?}", resp.error);
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let cache = Arc::new(MemoCache::with_capacity(16));
        let mut d = Dispatcher::with_cache(cache);
        let mut timed = RsRequest::new(RsOp::Reduce, CHAINS);
        timed.registers = Some(2);
        timed.timeout_ms = Some(0);
        let degraded = d.dispatch(&timed);
        assert_eq!(degraded.error.unwrap().code, codes::TIMEOUT);
        // Same cache key (timeout_ms is excluded): a cached degraded
        // result would surface here as a hit.
        let mut fresh_req = RsRequest::new(RsOp::Reduce, CHAINS);
        fresh_req.registers = Some(2);
        let fresh = d.dispatch(&fresh_req);
        assert!(fresh.ok);
        assert!(!fresh.cache.hit, "degraded result must not be cached");
    }

    #[test]
    fn retried_timeout_request_resumes_from_checkpoint() {
        use crate::checkpoint::CheckpointStore;
        let store = Arc::new(CheckpointStore::default());
        let mut d = Dispatcher::new();
        d.set_checkpoint_store(store.clone());
        let mut req = RsRequest::new(RsOp::Analyze, CHAINS);
        req.ilp = true;
        req.timeout_ms = Some(0); // expired on arrival: intLP interrupted at once
        let first = d.dispatch(&req);
        assert!(!first.ok);
        assert_eq!(first.error.unwrap().code, codes::TIMEOUT);
        assert_eq!(store.len(), 1, "interrupted intLP parked a checkpoint");
        // Same cache key (timeout_ms is excluded): the retry picks the
        // checkpoint up and finishes the search it started.
        let mut retry = RsRequest::new(RsOp::Analyze, CHAINS);
        retry.ilp = true;
        let second = d.dispatch(&retry);
        assert!(second.ok, "{:?}", second.error);
        let result = second.result.unwrap();
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        let ilp = float.ilp.as_ref().expect("resumed intLP completed");
        assert!(ilp.resumed, "retry continued from the parked checkpoint");
        assert!(ilp.proven_optimal);
        assert_eq!(ilp.saturation, 4);
        assert!(ilp.resume.is_none(), "finished searches carry no token");
        assert!(store.is_empty(), "resume consumed the entry");
        assert_eq!(store.counters(), (1, 1));
    }

    #[test]
    fn cold_requests_without_checkpoints_report_resumed_false() {
        let mut d = Dispatcher::new();
        d.set_checkpoint_store(Arc::new(crate::checkpoint::CheckpointStore::default()));
        let mut req = RsRequest::new(RsOp::Analyze, CHAINS);
        req.ilp = true;
        let resp = d.dispatch(&req);
        assert!(resp.ok, "{:?}", resp.error);
        let result = resp.result.unwrap();
        let float = result.types.iter().find(|t| t.reg_type == "float").unwrap();
        let ilp = float.ilp.as_ref().unwrap();
        assert!(!ilp.resumed);
        assert!(ilp.resume.is_none());
    }

    #[test]
    fn stale_queued_request_is_shed_without_executing() {
        let mut d = Dispatcher::new();
        let mut req = RsRequest::new(RsOp::Analyze, CHAINS);
        req.timeout_ms = Some(10);
        let line = serde_json::to_string(&req).unwrap();
        let enqueued = Instant::now() - Duration::from_millis(50);
        let (resp, _) = process_line_at(&mut d, &line, enqueued);
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().code, codes::OVERLOADED);
        assert!(resp.result.is_none(), "shed requests never execute");
    }

    #[test]
    fn watchdog_slot_force_cancels_and_latches() {
        let slot = WatchSlot::default();
        let cancel = Cancel::new();
        let deadline = Instant::now() - Duration::from_millis(5);
        slot.begin(&cancel, Some(deadline));
        assert!(
            !slot.check(deadline, Duration::from_millis(100)),
            "in grace"
        );
        assert!(slot.check(Instant::now(), Duration::ZERO));
        assert!(cancel.is_set(), "watchdog forced the token");
        assert!(!slot.check(Instant::now(), Duration::ZERO), "fires once");
        assert!(slot.take_forced());
        assert!(!slot.take_forced(), "latch is consumed");
        // Requests without a deadline are not watchable.
        slot.begin(&Cancel::new(), None);
        assert!(!slot.check(Instant::now(), Duration::ZERO));
    }

    #[test]
    fn injected_faults_answer_typed_and_service_continues() {
        use crate::fault::FaultPlan;
        let mut d = Dispatcher::new();
        d.set_faults(Arc::new(FaultPlan::from_spec("panic=3,error=2").unwrap()));
        let req = RsRequest::new(RsOp::Analyze, CHAINS);
        let first = d.dispatch(&req); // tick 1: clean
        let second = d.dispatch(&req); // tick 2: injected error
        let third = d.dispatch(&req); // tick 3: injected panic, contained
        let fourth = d.dispatch(&req); // tick 4: injected error
        assert!(first.ok);
        assert_eq!(second.error.unwrap().code, codes::ENGINE);
        assert_eq!(third.error.unwrap().code, codes::PANIC);
        assert_eq!(fourth.error.unwrap().code, codes::ENGINE);
        assert!(d.dispatch(&req).ok, "engine replaced, service continues");
    }

    #[test]
    fn unvalidated_requests_answer_typed_request_errors() {
        // Reaching execute() without validate() must not panic the worker.
        let cancel = Cancel::new();
        let mut engine = RsEngine::new();
        let mut hv = Vec::new();
        let mut req = RsRequest::new(RsOp::Reduce, CHAINS);
        let err = execute(&mut engine, &req, &cancel, &[], &mut hv).unwrap_err();
        assert_eq!(err.code, codes::REQUEST);
        req.reg_type = Some("flux".into());
        let err = execute(&mut engine, &req, &cancel, &[], &mut hv).unwrap_err();
        assert_eq!(err.code, codes::REQUEST);
        let mut req = RsRequest::new(RsOp::Pipeline, CHAINS);
        req.registers = Some(4);
        req.issue = Some(3);
        let err = execute(&mut engine, &req, &cancel, &[], &mut hv).unwrap_err();
        assert_eq!(err.code, codes::REQUEST);
        assert!(err.message.contains("issue width"), "{err}");
    }

    #[test]
    fn malformed_line_is_contained_and_next_request_answers() {
        let mut d = Dispatcher::new();
        let (bad, _) = process_line(&mut d, "{\"v\":1,\"op\":\"analyze\"");
        assert!(!bad.ok);
        assert_eq!(bad.error.unwrap().code, codes::REQUEST);
        let good = serde_json::to_string(&RsRequest::new(RsOp::Analyze, CHAINS)).unwrap();
        let (ok, json) = process_line(&mut d, &good);
        assert!(ok.ok);
        assert!(
            json.contains("\"ok\": true") || json.contains("\"ok\":true"),
            "{json}"
        );
    }
}

//! The single execution path behind every `rsat` front end.
//!
//! A [`Dispatcher`] owns one warm [`RsEngine`] and (optionally) a shared
//! [`MemoCache`]; [`Dispatcher::dispatch`] turns an [`RsRequest`] into an
//! [`RsResponse`], never panicking outward: engine panics are caught, the
//! engine is replaced, and the request answers `ok:false` with code
//! `panic`.

use crate::cache::MemoCache;
use crate::fault::{FaultAction, FaultPlan};
use rs_core::exact::ExactRs;
use rs_core::ilp::RsIlp;
use rs_core::model::{Ddg, RegType};
use rs_core::parse::{parse_ddg, print_ddg};
use rs_core::request::{
    codes, AllocResult, CacheInfo, IlpStats, ReduceResult, RsError, RsOp, RsRequest, RsResponse,
    RsResult, SolveResult, TypeResult,
};
use rs_core::spill::spill_to_fit;
use rs_core::RsEngine;
use rs_core::{Cancel, MilpError};
use rs_sched::{ListScheduler, RegisterAllocator, Resources};
use serde::{Deserialize, JsonWriter, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One warm worker: engine + optional shared cache.
pub struct Dispatcher {
    engine: RsEngine,
    cache: Option<Arc<MemoCache>>,
    faults: Option<Arc<FaultPlan>>,
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
            engine: RsEngine::new(),
            cache: None,
            faults: None,
        }
    }

    /// Injects faults per `plan` at this dispatcher's probe point (chaos
    /// testing; see [`FaultPlan`]).
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
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
        // The canonical key is built only when the cache is consulted: a
        // dispatcher with a cache, and a request that allows caching.
        let key = (self.cache.is_some() && req.cache).then(|| req.cache_key());
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(result) = cache.lookup(key) {
                return RsResponse::success(id, result, self.cache_info(true), millis_since(start));
            }
        }
        let cancel = match req.timeout_ms {
            Some(ms) => Cancel::with_deadline(enqueued + Duration::from_millis(ms)),
            None => Cancel::new(),
        };
        self.engine.set_cancel(cancel.clone());
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
            execute(&mut self.engine, req, &cancel)
        }));
        self.engine.clear_cancel();
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
                if let (Some(cache), Some(key)) = (&self.cache, key) {
                    cache.insert(key, &result);
                }
                RsResponse::success(id, result, self.cache_info(false), millis_since(start))
            }
            Ok(Err(e)) => RsResponse::failure(id, e, self.cache_info(false), millis_since(start)),
            Err(payload) => {
                // The engine scratch may be mid-mutation: replace it, keep
                // serving.
                self.engine = RsEngine::new();
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
    let mut w = JsonWriter::new(None);
    response.write_json(&mut w);
    let json = w.finish();
    (response, json)
}

/// Runs the validated request against the engine.
fn execute(engine: &mut RsEngine, req: &RsRequest, cancel: &Cancel) -> Result<RsResult, RsError> {
    let mut ddg = parse_ddg(&req.ddg).map_err(|e| RsError::new(codes::PARSE, e.to_string()))?;
    let types: Vec<RegType> = match req.reg_type.as_deref() {
        Some(name) => vec![RegType::from_name(name).ok_or_else(|| {
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
                    .push(analyze_type(engine, &ddg, t, req, cancel));
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

fn analyze_type(
    engine: &mut RsEngine,
    ddg: &Ddg,
    t: RegType,
    req: &RsRequest,
    cancel: &Cancel,
) -> TypeResult {
    let threads = req.threads.max(1);
    let a = engine.analyze(ddg, t);
    let saturating = a
        .saturating_values
        .iter()
        .map(|&v| ddg.graph().node(v).name.clone())
        .collect();
    let mut tr = TypeResult {
        reg_type: format!("{t:?}"),
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
        });
    }
    if req.ilp {
        let mut solver = RsIlp::with_threads(threads);
        solver.milp.cancel = cancel.clone();
        match solver.saturation(ddg, t) {
            Ok(r) => {
                tr.ilp = Some(SolveResult {
                    saturation: r.saturation,
                    proven_optimal: r.proven_optimal,
                    bound: if r.proven_optimal {
                        None
                    } else {
                        Some(r.upper_bound)
                    },
                });
                if req.stats {
                    let st = &r.milp_stats;
                    tr.ilp_stats = Some(IlpStats {
                        nodes: st.nodes,
                        lp_solves: st.lp_solves,
                        dive_steps: st.dive_steps,
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
            // Audit rejections are a property of the submitted model, not
            // an engine fault: type them `request` so clients see *their*
            // input was bad.
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
    let mut reduce = ReduceResult {
        budget,
        rs_after: out.rs_after(),
        arcs_added: out.added_arcs().len(),
        cp_before,
        cp_after: ddg.critical_path(),
        fits: out.fits(),
        spilled: Vec::new(),
    };
    if !reduce.fits && spill {
        if let Some(res) = spill_to_fit(ddg, t, budget) {
            *ddg = res.ddg;
            reduce = ReduceResult {
                rs_after: res.rs_after,
                arcs_added: res.reduction_arcs,
                cp_after: ddg.critical_path(),
                fits: true,
                spilled: res.spilled_values,
                ..reduce
            };
        }
    }
    Ok(TypeResult {
        reg_type: format!("{t:?}"),
        values,
        saturation: out.rs_before(),
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
        for (ddg, line) in [
            ("op a load float\nflow a ghost 1 float\n", "line 2"),
            // a latency beyond ±(2^31 − 1), whose path sums would wrap
            (
                "op a load float\nop b fadd float\nop s store none\n\
                 flow a b 9223372036854775000 float\nflow b s 4000 float\n",
                "line 4",
            ),
        ] {
            let resp = d.dispatch(&RsRequest::new(RsOp::Analyze, ddg));
            assert!(!resp.ok);
            let err = resp.error.unwrap();
            assert_eq!(err.code(), codes::PARSE);
            assert!(err.message().contains(line), "{}", err.message());
        }
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
        assert_eq!(resp.error.as_ref().unwrap().code(), codes::TIMEOUT);
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
        assert_eq!(degraded.error.unwrap().code(), codes::TIMEOUT);
        // Same cache key (timeout_ms is excluded): a cached degraded
        // result would surface here as a hit.
        let mut fresh_req = RsRequest::new(RsOp::Reduce, CHAINS);
        fresh_req.registers = Some(2);
        let fresh = d.dispatch(&fresh_req);
        assert!(fresh.ok);
        assert!(!fresh.cache.hit, "degraded result must not be cached");
    }

    #[test]
    fn retried_timeout_request_recomputes() {
        // A cache-bypassing intLP request, as a client sends it to the
        // daemon: timed out, then retried without a deadline.
        let float = |r: RsResult| r.types.into_iter().find(|t| t.reg_type == "float").unwrap();
        let mut d = Dispatcher::with_cache(Arc::new(MemoCache::with_capacity(16)));
        let mut req = RsRequest::new(RsOp::Analyze, CHAINS);
        req.ilp = true;
        req.stats = true;
        req.cache = false;
        req.timeout_ms = Some(0); // expired on arrival: intLP interrupted at once
        let first = d.dispatch(&req);
        let first_line = serde_json::to_string(&first).unwrap();
        assert_eq!(first.error.as_ref().unwrap().code(), codes::TIMEOUT);
        let partial = float(first.result.expect("timeout keeps the partial result"));
        assert_eq!(partial.ilp_error.unwrap().code(), codes::TIMEOUT);
        // The retry on the same dispatcher solves from the root: the same
        // answer, tree and work as a dispatcher that never saw the request.
        req.timeout_ms = None;
        let second = d.dispatch(&req);
        let second_line = serde_json::to_string(&second).unwrap();
        assert!(second.ok, "{:?}", second.error);
        let retried = float(second.result.unwrap());
        let fresh = float(Dispatcher::new().dispatch(&req).result.unwrap());
        let ilp = retried.ilp.as_ref().expect("retried intLP completed");
        assert!(ilp.proven_optimal);
        assert_eq!(ilp.saturation, 4);
        assert_eq!(retried.ilp, fresh.ilp);
        // Nodes, trace digest and every work counter.
        assert_eq!(retried.ilp_stats.unwrap(), fresh.ilp_stats.unwrap());
        for line in [first_line, second_line] {
            assert!(!line.contains("\"resumed\""), "{line}");
        }
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
        assert_eq!(resp.error.unwrap().code(), codes::OVERLOADED);
        assert!(resp.result.is_none(), "shed requests never execute");
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
        assert_eq!(second.error.unwrap().code(), codes::ENGINE);
        assert_eq!(third.error.unwrap().code(), codes::PANIC);
        assert_eq!(fourth.error.unwrap().code(), codes::ENGINE);
        assert!(d.dispatch(&req).ok, "engine replaced, service continues");
    }

    #[test]
    fn unvalidated_requests_answer_typed_request_errors() {
        // Reaching execute() without validate() must not panic the worker.
        let cancel = Cancel::new();
        let mut engine = RsEngine::new();
        let mut req = RsRequest::new(RsOp::Reduce, CHAINS);
        let err = execute(&mut engine, &req, &cancel).unwrap_err();
        assert_eq!(err.code(), codes::REQUEST);
        req.reg_type = Some("flux".into());
        let err = execute(&mut engine, &req, &cancel).unwrap_err();
        assert_eq!(err.code(), codes::REQUEST);
        let mut req = RsRequest::new(RsOp::Pipeline, CHAINS);
        req.registers = Some(4);
        req.issue = Some(3);
        let err = execute(&mut engine, &req, &cancel).unwrap_err();
        assert_eq!(err.code(), codes::REQUEST);
        assert!(err.message().contains("issue width"), "{err}");
    }

    #[test]
    fn malformed_line_is_contained_and_next_request_answers() {
        let mut d = Dispatcher::new();
        let (bad, _) = process_line(&mut d, "{\"v\":1,\"op\":\"analyze\"");
        assert!(!bad.ok);
        assert_eq!(bad.error.unwrap().code(), codes::REQUEST);
        let good = serde_json::to_string(&RsRequest::new(RsOp::Analyze, CHAINS)).unwrap();
        let (ok, json) = process_line(&mut d, &good);
        assert!(ok.ok);
        assert!(
            json.contains("\"ok\": true") || json.contains("\"ok\":true"),
            "{json}"
        );
    }
}

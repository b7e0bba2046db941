//! The `rsat` wire schema: one request/response shape for every execution
//! path.
//!
//! [`RsRequest`] describes a single unit of analysis work — an operation
//! (`analyze`/`reduce`/`pipeline`), the DDG text, and the solver knobs the
//! CLI exposes as flags. [`RsResponse`] carries either an [`RsResult`] or a
//! machine-readable [`RsError`] (`{code, message}`), plus cache counters
//! and the dispatch wall time. The same structs back
//!
//! - the `rsat serve` daemon (newline-delimited JSON over stdio or a Unix
//!   socket),
//! - the one-shot `analyze`/`reduce`/`pipeline` subcommands, and
//! - the `rsat corpus` batch runner,
//!
//! so every front end constructs an [`RsRequest`] and renders from the same
//! response shape. The schema is versioned: requests must carry `"v": 1`
//! ([`PROTOCOL_VERSION`]); responses echo the version back.
//!
//! This module is pure data — execution lives in the `rs-serve` crate so
//! the dispatcher can reach the scheduler/allocator without a dependency
//! cycle.

use crate::model::RegType;
use serde::{de_field, DeError, Deserialize, Serialize, Value};

/// The wire protocol version accepted by [`RsRequest::validate`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Stable machine-readable error codes carried by [`RsError::code`].
pub mod codes {
    /// Bad or missing request fields / CLI flags.
    pub const USAGE: &str = "usage";
    /// Filesystem or socket failure.
    pub const IO: &str = "io";
    /// The `.ddg` payload did not parse.
    pub const PARSE: &str = "parse";
    /// The request line was not valid JSON or not a valid request object.
    pub const REQUEST: &str = "request";
    /// Unsupported protocol version.
    pub const VERSION: &str = "version";
    /// The engine panicked; the worker replaced it and kept serving.
    pub const PANIC: &str = "panic";
    /// A solver reported an error (e.g. intLP failure).
    pub const ENGINE: &str = "engine";
    /// The register budget cannot be met with the requested means.
    pub const INFEASIBLE: &str = "infeasible";
    /// The request's `timeout_ms` deadline expired. The response still
    /// carries the best partial result (heuristic values, solver
    /// incumbents with their bounds) in [`super::RsResponse::result`].
    pub const TIMEOUT: &str = "timeout";
    /// The server shed the request before execution: it waited in the
    /// queue past its own deadline. Safe to retry.
    pub const OVERLOADED: &str = "overloaded";
}

/// Machine-readable error shape shared by serve responses, corpus
/// `ok:false` entries, and CLI failures.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsError {
    /// One of the [`codes`] constants.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl RsError {
    /// Creates an error with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        RsError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// Shorthand for a [`codes::USAGE`] error.
    pub fn usage(message: impl Into<String>) -> Self {
        RsError::new(codes::USAGE, message)
    }
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RsError {}

/// The operation a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RsOp {
    /// Compute register saturation (optionally exact / intLP).
    Analyze,
    /// Reduce saturation below a register budget by serialization arcs
    /// (optionally spilling).
    Reduce,
    /// Reduce, then list-schedule and allocate (the paper's Figure-1 flow).
    Pipeline,
}

impl RsOp {
    /// Lowercase wire name, matching the CLI subcommand.
    pub fn name(self) -> &'static str {
        match self {
            RsOp::Analyze => "analyze",
            RsOp::Reduce => "reduce",
            RsOp::Pipeline => "pipeline",
        }
    }

    /// Parses a lowercase wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "analyze" => Some(RsOp::Analyze),
            "reduce" => Some(RsOp::Reduce),
            "pipeline" => Some(RsOp::Pipeline),
            _ => None,
        }
    }
}

impl Serialize for RsOp {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for RsOp {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = String::from_value(value)?;
        RsOp::from_name(&s).ok_or_else(|| DeError::new(format!("unknown op `{s}`")))
    }
}

/// Lowercase wire name of a register type (`"int"`/`"float"`/`"branch"`).
pub fn reg_type_name(t: RegType) -> String {
    format!("{t:?}")
}

/// Parses a lowercase register-type name.
pub fn reg_type_from_name(name: &str) -> Option<RegType> {
    match name {
        "int" => Some(RegType::INT),
        "float" => Some(RegType::FLOAT),
        "branch" => Some(RegType::BRANCH),
        _ => None,
    }
}

/// One unit of analysis work, as submitted by any front end.
///
/// Serialization emits every field; deserialization fills absent optional
/// fields with defaults (`false` flags, `threads: 1`, `cache: true`), so a
/// minimal wire request is `{"v":1,"op":"analyze","ddg":"..."}`. Unknown
/// fields are ignored.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RsRequest {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub v: u64,
    /// Optional client-chosen id, echoed verbatim in the response.
    pub id: Option<String>,
    /// The operation to run.
    pub op: RsOp,
    /// The DDG in the `rs_core::parse` text format.
    pub ddg: String,
    /// Restrict to one register type (default: every type present).
    pub reg_type: Option<String>,
    /// Register budget; required by `reduce` and `pipeline`.
    pub registers: Option<usize>,
    /// Also run the exact combinatorial search (`analyze`).
    pub exact: bool,
    /// Also run the Section-3 intLP (`analyze`).
    pub ilp: bool,
    /// Report intLP branch-and-bound statistics (`analyze`, with `ilp`).
    pub stats: bool,
    /// Worker threads for the exact solvers (results are thread-count
    /// invariant; excluded from the cache key).
    pub threads: usize,
    /// Fall back to spill-code insertion when serialization cannot reach
    /// the budget (`reduce`).
    pub spill: bool,
    /// Return the post-reduction DDG text in [`RsResult::ddg_out`].
    pub emit_ddg: bool,
    /// Issue width for the pipeline scheduler (1, 4, or 8; default 4).
    pub issue: Option<u64>,
    /// Allow the server to answer from its memoization cache.
    pub cache: bool,
    /// Wall-clock deadline for this request in milliseconds (default:
    /// none). On expiry the executing stack cancels cooperatively and the
    /// response degrades instead of failing: `ok:false` with
    /// [`codes::TIMEOUT`] *plus* the best partial result. Excluded from
    /// the cache key — degraded results are never cached.
    pub timeout_ms: Option<u64>,
    /// Override the solver's pre-solve static audit (`None` keeps the
    /// build default: on in debug, off in release). The audit rejects
    /// incoherent models and corrupted resume checkpoints with
    /// [`codes::REQUEST`] errors before any search runs; it never changes
    /// the answer of a sound request.
    pub audit: Option<bool>,
}

impl RsRequest {
    /// A version-1 request with default knobs.
    pub fn new(op: RsOp, ddg: impl Into<String>) -> Self {
        RsRequest {
            v: PROTOCOL_VERSION,
            id: None,
            op,
            ddg: ddg.into(),
            reg_type: None,
            registers: None,
            exact: false,
            ilp: false,
            stats: false,
            threads: 1,
            spill: false,
            emit_ddg: false,
            issue: None,
            cache: true,
            timeout_ms: None,
            audit: None,
        }
    }

    /// Checks version and field consistency, before any parsing of the
    /// DDG payload.
    pub fn validate(&self) -> Result<(), RsError> {
        if self.v != PROTOCOL_VERSION {
            return Err(RsError::new(
                codes::VERSION,
                format!(
                    "unsupported protocol version {} (expected {PROTOCOL_VERSION})",
                    self.v
                ),
            ));
        }
        if let Some(name) = &self.reg_type {
            if reg_type_from_name(name).is_none() {
                return Err(RsError::usage(format!("unknown register type `{name}`")));
            }
        }
        match self.op {
            RsOp::Analyze => {}
            RsOp::Reduce | RsOp::Pipeline => match self.registers {
                None => {
                    return Err(RsError::usage(format!(
                        "op `{}` requires a register budget (missing --registers N)",
                        self.op.name()
                    )))
                }
                Some(0) => {
                    return Err(RsError::usage("--registers must be at least 1"));
                }
                Some(_) => {}
            },
        }
        if let Some(w) = self.issue {
            if !matches!(w, 1 | 4 | 8) {
                return Err(RsError::usage(format!("unknown issue width `{w}`")));
            }
        }
        Ok(())
    }

    /// Canonical memoization key over every result-affecting field.
    ///
    /// `id`, `cache`, `threads`, and `timeout_ms` are excluded: the first
    /// two do not affect results, exact-solver results are thread-count
    /// invariant (solve *statistics* may differ; they are advisory), and
    /// timed-out (degraded) results are never inserted into the cache, so
    /// the deadline cannot affect what a cached entry holds.
    pub fn cache_key(&self) -> String {
        format!(
            "v{};op={};type={:?};regs={:?};exact={};ilp={};stats={};spill={};emit={};issue={:?};audit={:?};ddg={}",
            self.v,
            self.op.name(),
            self.reg_type,
            self.registers,
            self.exact,
            self.ilp,
            self.stats,
            self.spill,
            self.emit_ddg,
            self.issue,
            self.audit,
            self.ddg,
        )
    }
}

impl Deserialize for RsRequest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if !matches!(value, Value::Object(_)) {
            return Err(DeError::new("expected request object"));
        }
        let mut req = RsRequest::new(de_field::<RsOp>(value, "op")?, String::new());
        req.ddg = de_field(value, "ddg")?;
        // `v` is required on the wire: absent versions fail validate().
        req.v = opt_field(value, "v")?.unwrap_or(0);
        req.id = opt_field(value, "id")?;
        req.reg_type = opt_field(value, "reg_type")?;
        req.registers = opt_field(value, "registers")?;
        req.exact = opt_field(value, "exact")?.unwrap_or(false);
        req.ilp = opt_field(value, "ilp")?.unwrap_or(false);
        req.stats = opt_field(value, "stats")?.unwrap_or(false);
        req.threads = opt_field(value, "threads")?.unwrap_or(1);
        req.spill = opt_field(value, "spill")?.unwrap_or(false);
        req.emit_ddg = opt_field(value, "emit_ddg")?.unwrap_or(false);
        req.issue = opt_field(value, "issue")?;
        req.cache = opt_field(value, "cache")?.unwrap_or(true);
        req.timeout_ms = opt_field(value, "timeout_ms")?;
        req.audit = opt_field(value, "audit")?;
        Ok(req)
    }
}

/// Optional-field lookup: a missing or `null` key yields `None`.
fn opt_field<T: Deserialize>(value: &Value, name: &str) -> Result<Option<T>, DeError> {
    de_field::<Option<T>>(value, name)
}

/// Cache observability attached to every response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheInfo {
    /// Whether this response was served from the memoization cache.
    pub hit: bool,
    /// Cumulative cache hits of the answering dispatcher's cache.
    pub hits: u64,
    /// Cumulative cache misses of the answering dispatcher's cache.
    pub misses: u64,
}

impl CacheInfo {
    /// Cache info for a dispatcher without a cache.
    pub fn disabled() -> Self {
        CacheInfo {
            hit: false,
            hits: 0,
            misses: 0,
        }
    }
}

/// Result of one exact-flavour solver run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveResult {
    /// The saturation the solver found.
    pub saturation: usize,
    /// Whether the value is proven optimal (false: budget-limited).
    pub proven_optimal: bool,
    /// Proven upper bound on the true saturation when the solver was
    /// interrupted (`saturation ≤ RS ≤ bound`); `None` when proven optimal
    /// (the bound would merely repeat `saturation`).
    pub bound: Option<usize>,
    /// Opaque resume token, present when the solver was interrupted
    /// (deadline, cancellation, or node budget) with open work left. The
    /// serving dispatcher also retains the checkpoint behind this token in
    /// a bounded store keyed by the request's cache key, so **retrying the
    /// same request resumes the search** instead of restarting it; the
    /// token itself lets clients persist the snapshot across server
    /// restarts. Treat the contents as opaque: the format is a
    /// solver-internal JSON document, versioned and fingerprinted against
    /// the exact model and configuration that produced it.
    pub resume: Option<String>,
    /// True when this result continued a previous interrupted search from
    /// a retained checkpoint instead of solving from scratch.
    pub resumed: bool,
}

/// intLP branch-and-bound statistics (mirrors `rs_lp::milp::MilpStats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IlpStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// LP relaxation solves.
    pub lp_solves: usize,
    /// In-place re-solves on a live dive tableau (dive steps).
    pub warm_solves: usize,
    /// Dive steps whose dual repair converged.
    pub warm_hits: usize,
    /// Pseudocost-guided branching decisions.
    pub pseudocost_branches: usize,
    /// Strong-branching probes.
    pub strong_branch_probes: usize,
    /// Simplex pivots.
    pub pivots: usize,
    /// Dual-repair pivots of dive steps and strong-branching probes, all
    /// priced by dual steepest edge.
    pub dse_pivots: usize,
    /// Bound flips.
    pub bound_flips: usize,
    /// Cutting planes added to the relaxation (root rounds + node cuts).
    pub cuts_added: usize,
    /// Root separation rounds that improved the relaxation bound.
    pub cut_rounds: usize,
    /// Nodes fathomed by bound propagation before any LP solve.
    pub propagation_fathoms: usize,
    /// Relaxation tableau rows.
    pub rows: usize,
    /// Relaxation tableau columns.
    pub cols: usize,
    /// Order-sensitive digest of the committed branch-and-bound node
    /// trace. Identical runs (any thread count; interrupted-and-resumed
    /// or not) report identical digests — the observable the determinism
    /// smoke checks diff.
    pub trace_digest: u64,
    /// Whether the pre-solve static audit ran for this solve. Advisory,
    /// like the pivot counters: it never affects the reported answer.
    pub audited: bool,
}

/// Outcome of reducing one register type below its budget.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReduceResult {
    /// The register budget.
    pub budget: usize,
    /// Saturation after reduction (and spilling, if any).
    pub rs_after: usize,
    /// Serialization arcs added.
    pub arcs_added: usize,
    /// Critical path before reduction.
    pub cp_before: i64,
    /// Critical path after reduction.
    pub cp_after: i64,
    /// Whether `rs_after <= budget` was reached.
    pub fits: bool,
    /// Values spilled to memory (empty without `spill`).
    pub spilled: Vec<String>,
}

/// Register allocation of one type over the final schedule (`pipeline`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocResult {
    /// Registers the allocator actually used.
    pub registers_used: usize,
    /// Values spilled by the allocator (0 when reduction did its job).
    pub spills: usize,
}

/// Per-register-type results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TypeResult {
    /// Lowercase register-type name ([`reg_type_name`]).
    pub reg_type: String,
    /// Values of this type in the submitted DAG.
    pub values: usize,
    /// Greedy-k saturation estimate RS* (pre-reduction).
    pub saturation: usize,
    /// Names of the saturating values (analyze only).
    pub saturating: Vec<String>,
    /// Whether the heuristic value is provably optimal.
    pub optimal: bool,
    /// Exact combinatorial search result, when requested.
    pub exact: Option<SolveResult>,
    /// intLP result, when requested and successful.
    pub ilp: Option<SolveResult>,
    /// intLP branch-and-bound statistics, when requested.
    pub ilp_stats: Option<IlpStats>,
    /// intLP failure, when requested and unsuccessful.
    pub ilp_error: Option<RsError>,
    /// Reduction outcome (`reduce`/`pipeline`).
    pub reduce: Option<ReduceResult>,
    /// Allocation outcome (`pipeline`, when every type fits).
    pub alloc: Option<AllocResult>,
}

/// The payload of a successful response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RsResult {
    /// Operations in the submitted DAG (incl. ⊥).
    pub ops: usize,
    /// Edges in the submitted DAG.
    pub edges: usize,
    /// Critical path of the submitted DAG.
    pub critical_path: i64,
    /// Per-type results, in ascending type order.
    pub types: Vec<TypeResult>,
    /// Schedule makespan (`pipeline`, when every type fits).
    pub makespan: Option<i64>,
    /// Post-reduction DDG text, when `emit_ddg` was set.
    pub ddg_out: Option<String>,
}

/// The answer to one [`RsRequest`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RsResponse {
    /// Protocol version (always [`PROTOCOL_VERSION`]).
    pub v: u64,
    /// The request id, echoed back when one was given.
    pub id: Option<String>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The failure, when `ok` is false.
    pub error: Option<RsError>,
    /// The result, when `ok` is true.
    pub result: Option<RsResult>,
    /// Cache observability.
    pub cache: CacheInfo,
    /// Dispatch wall time in milliseconds.
    pub millis: f64,
}

impl RsResponse {
    /// A successful response.
    pub fn success(id: Option<String>, result: RsResult, cache: CacheInfo, millis: f64) -> Self {
        RsResponse {
            v: PROTOCOL_VERSION,
            id,
            ok: true,
            error: None,
            result: Some(result),
            cache,
            millis,
        }
    }

    /// A failed response.
    pub fn failure(id: Option<String>, error: RsError, cache: CacheInfo, millis: f64) -> Self {
        RsResponse {
            v: PROTOCOL_VERSION,
            id,
            ok: false,
            error: Some(error),
            result: None,
            cache,
            millis,
        }
    }

    /// A degraded (deadline-expired) response: `ok:false` with a
    /// [`codes::TIMEOUT`] error **and** the best partial result the stack
    /// produced before the cut — heuristic saturations, solver incumbents
    /// with their dual bounds (`proven_optimal: false`), partial
    /// reductions. Clients that only check `ok` treat it as a failure;
    /// clients that look at `result` still get the best-known answer.
    pub fn timeout(
        id: Option<String>,
        error: RsError,
        partial: RsResult,
        cache: CacheInfo,
        millis: f64,
    ) -> Self {
        // Promoted from a debug assertion: a mislabelled timeout response
        // would lie to every release client. Once per response, and the
        // serve loop's panic isolation contains a violation.
        assert_eq!(error.code, codes::TIMEOUT);
        RsResponse {
            v: PROTOCOL_VERSION,
            id,
            ok: false,
            error: Some(error),
            result: Some(partial),
            cache,
            millis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_wire_request_gets_defaults() {
        let v = serde_json::from_str(r#"{"v":1,"op":"analyze","ddg":"op a load float"}"#).unwrap();
        let req = RsRequest::from_value(&v).expect("parses");
        assert_eq!(req.op, RsOp::Analyze);
        assert_eq!(req.threads, 1);
        assert!(req.cache);
        assert!(!req.exact);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn missing_version_is_rejected_by_validate() {
        let v = serde_json::from_str(r#"{"op":"analyze","ddg":""}"#).unwrap();
        let req = RsRequest::from_value(&v).expect("parses");
        let err = req.validate().unwrap_err();
        assert_eq!(err.code, codes::VERSION);
    }

    #[test]
    fn reduce_without_budget_is_a_usage_error() {
        let mut req = RsRequest::new(RsOp::Reduce, "op a load float");
        assert_eq!(req.validate().unwrap_err().code, codes::USAGE);
        req.registers = Some(0);
        let err = req.validate().unwrap_err();
        assert!(err.message.contains("at least 1"), "{err}");
        req.registers = Some(2);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn request_roundtrips_through_json() {
        let mut req = RsRequest::new(RsOp::Pipeline, "op a load float\n");
        req.id = Some("r1".into());
        req.registers = Some(4);
        req.issue = Some(8);
        req.threads = 3;
        req.timeout_ms = Some(250);
        let json = serde_json::to_string(&req).unwrap();
        let back = RsRequest::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn cache_key_ignores_threads_and_id() {
        let mut a = RsRequest::new(RsOp::Analyze, "op a load float");
        let mut b = a.clone();
        b.threads = 8;
        b.id = Some("x".into());
        b.cache = false;
        b.timeout_ms = Some(5);
        assert_eq!(a.cache_key(), b.cache_key());
        a.exact = true;
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn timeout_ms_defaults_to_none_on_the_wire() {
        let v = serde_json::from_str(r#"{"v":1,"op":"analyze","ddg":"op a load float"}"#).unwrap();
        let req = RsRequest::from_value(&v).expect("parses");
        assert_eq!(req.timeout_ms, None);
        let v = serde_json::from_str(
            r#"{"v":1,"op":"analyze","ddg":"op a load float","timeout_ms":40}"#,
        )
        .unwrap();
        let req = RsRequest::from_value(&v).expect("parses");
        assert_eq!(req.timeout_ms, Some(40));
    }

    #[test]
    fn solve_result_resume_token_roundtrips() {
        // The resume token is an embedded JSON document — every quote,
        // backslash, and control character must survive the string-field
        // escaping of the response wire format.
        let sr = SolveResult {
            saturation: 3,
            proven_optimal: false,
            bound: Some(5),
            resume: Some(
                "{\"version\":1,\"frontier\":[{\"path\":[0,1]}],\
                 \"note\":\"quote \\\" backslash \\\\ newline \\n tab \\t\"}"
                    .into(),
            ),
            resumed: true,
        };
        let json = serde_json::to_string(&sr).unwrap();
        let back = SolveResult::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, sr);

        // Absent token deserializes to None/false (wire compat with
        // responses from servers predating resume support).
        let v = serde_json::from_str(
            r#"{"saturation":2,"proven_optimal":true,"bound":null,"resume":null,"resumed":false}"#,
        )
        .unwrap();
        let back = SolveResult::from_value(&v).unwrap();
        assert_eq!(back.resume, None);
        assert!(!back.resumed);
    }

    #[test]
    fn timeout_response_carries_error_and_partial_result() {
        let partial = RsResult {
            ops: 2,
            edges: 1,
            critical_path: 3,
            types: Vec::new(),
            makespan: None,
            ddg_out: None,
        };
        let resp = RsResponse::timeout(
            Some("t".into()),
            RsError::new(codes::TIMEOUT, "deadline expired after 40 ms"),
            partial,
            CacheInfo::disabled(),
            41.0,
        );
        assert!(!resp.ok);
        assert_eq!(resp.error.as_ref().unwrap().code, codes::TIMEOUT);
        assert!(
            resp.result.is_some(),
            "timeout must keep the partial result"
        );
        let json = serde_json::to_string(&resp).unwrap();
        let back = RsResponse::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}

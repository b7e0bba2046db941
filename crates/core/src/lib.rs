//! # rs-core — register saturation (Touati, ICPP 2004)
//!
//! The **register saturation** `RS_t(G)` of a data-dependence DAG `G` is the
//! exact maximal register requirement of register type `t` over *all* valid
//! schedules of `G`:
//!
//! ```text
//! RS_t(G) = max over σ ∈ Σ(G) of RN_σ^t(G)
//! ```
//!
//! Handling register pressure this way — *before* instruction scheduling —
//! decouples register constraints from resource-constrained scheduling
//! (Figure 1 of the paper): if `RS ≤ R` the DAG needs no attention at all,
//! and otherwise the *reduction* pass adds the fewest serialization arcs
//! that bring `RS` below `R` while minimizing critical-path growth.
//!
//! This crate implements both sides of the paper's optimality study:
//!
//! | problem | heuristic (from CC'01 \[14\]) | exact |
//! |---|---|---|
//! | compute `RS` (NP-complete) | [`heuristic::GreedyK`], run by [`engine::RsEngine`] | [`exact::ExactRs`] (combinatorial B&B), [`ilp::RsIlp`] (the paper's Section-3 intLP) |
//! | reduce `RS ≤ R` (NP-hard, Thm 4.2) | [`reduce::Reducer`] | [`ilp::ReduceIlp`] (Section-4 intLP + Theorem-4.2 serialization arcs) |
//!
//! plus the supporting theory: lifetimes and register need
//! ([`lifetime`]), the potential-killing framework ([`pkill`], and
//! [`killing`] with the one `DV_k` evaluator that Greedy-k and the exact
//! search share), the register-*minimization* strawman of Section 6
//! ([`minimize`]), a time-indexed baseline intLP used for the model-size
//! comparison ([`ilp_baseline`]), and the DDG text format ([`parse`]) and
//! wire schema ([`request`]) that every front end shares. The Figure-1
//! flow itself — [`RsEngine::reduce`] on each register type, then
//! scheduling and allocation — runs in the `rs-serve` dispatcher, the one
//! path behind `rsat`, `rsat corpus` and `rsat serve`.

#![forbid(unsafe_code)]
// Exact float comparison on solver values, outside tests; comparisons
// against zero and infinity are exempt.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod cfg;
pub mod engine;
pub mod exact;
pub mod heuristic;
pub mod ilp;
pub mod ilp_baseline;
pub mod killing;
pub mod lifetime;
pub mod minimize;
pub mod model;
pub mod parse;
pub mod pkill;
pub mod reduce;
pub mod request;
pub mod spill;

pub use engine::RsEngine;
pub use exact::ExactRs;
pub use heuristic::GreedyK;
pub use ilp::{ReduceIlp, RsIlp};
pub use killing::KillingFunction;
pub use lifetime::{lifetime_intervals, register_need, saturating_values};
pub use model::{Ddg, DdgBuilder, EdgeKind, OpClass, Operation, RegType, Target, TargetKind};
pub use reduce::{ReduceOutcome, Reducer};
pub use request::{RsError, RsOp, RsRequest, RsResponse, RsResult};
pub use rs_lp::{par_map, Cancel, MilpError};
pub use spill::{spill_to_fit, SpillResult};

//! # register-saturation
//!
//! A complete Rust implementation of **register saturation** analysis and
//! reduction, reproducing:
//!
//! > Sid-Ahmed-Ali Touati, *On the Optimality of Register Saturation*,
//! > ICPP 2004 / Electronic Notes in Theoretical Computer Science 132 (2005).
//!
//! The register saturation `RS_t(G)` of a data-dependence DAG `G` is the
//! **exact maximum register requirement of type `t` over all valid
//! schedules** of `G`. Handling register pressure *before* instruction
//! scheduling — by checking `RS ≤ R` and, when it is not, adding the minimal
//! serialization arcs that bring it below `R` — frees the scheduler from
//! register constraints entirely (Figure 1 of the paper).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`graph`] (`rs-graph`): DAG substrate — longest paths (which also
//!   answer reachability), Dilworth antichains via Hopcroft–Karp.
//! - [`lp`] (`rs-lp`): two-phase simplex + branch-and-bound MILP solver and
//!   the logical-operator linearizations used by the paper's intLP models.
//! - [`core`] (`rs-core`): the paper — DDG model, lifetimes, potential
//!   killing, Greedy-k heuristic, exact RS (combinatorial and intLP), and
//!   RS reduction (heuristic and exact intLP).
//! - [`sched`] (`rs-sched`): downstream list scheduler and register
//!   allocator that the Figure-1 flow hands the reduced DAG to. The flow
//!   itself (reduce each type with `RsEngine::reduce`, then schedule and
//!   allocate) runs in `rs-serve`'s dispatcher behind every `rsat` front
//!   end; `tests/pipeline.rs` drives it end to end from the library.
//! - [`kernels`] (`rs-kernels`): the experiment corpus (Livermore, LINPACK,
//!   whetstone, SpecFP-like loop bodies) and random-DAG generators.
//!
//! ## Quickstart
//!
//! ```
//! use register_saturation::prelude::*;
//!
//! // Build a tiny DDG: two loads feeding an add, result stored.
//! let mut b = DdgBuilder::new(Target::superscalar());
//! let l1 = b.op("load a[i]", OpClass::Load, Some(RegType::FLOAT));
//! let l2 = b.op("load b[i]", OpClass::Load, Some(RegType::FLOAT));
//! let add = b.op("fadd", OpClass::FloatAlu, Some(RegType::FLOAT));
//! let st = b.op("store c[i]", OpClass::Store, None);
//! b.flow(l1, add, 4, RegType::FLOAT);
//! b.flow(l2, add, 4, RegType::FLOAT);
//! b.flow(add, st, 2, RegType::FLOAT);
//! let ddg = b.finish();
//!
//! // Register saturation of the float type.
//! let rs = GreedyK::new().saturation(&ddg, RegType::FLOAT);
//! assert_eq!(rs.saturation, 2); // the two loads can be alive together
//! ```

#![forbid(unsafe_code)]

pub use rs_core as core;
pub use rs_graph as graph;
pub use rs_kernels as kernels;
pub use rs_lp as lp;
pub use rs_sched as sched;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use rs_core::exact::ExactRs;
    pub use rs_core::heuristic::GreedyK;
    pub use rs_core::ilp::{ReduceIlp, RsIlp};
    pub use rs_core::lifetime::{lifetime_intervals, register_need};
    pub use rs_core::model::{Ddg, DdgBuilder, OpClass, RegType, Target};
    pub use rs_core::reduce::{ReduceOutcome, Reducer};
    pub use rs_graph::{DiGraph, NodeId};
    pub use rs_sched::{ListScheduler, RegisterAllocator, Resources};
}

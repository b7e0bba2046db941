//! # rs-graph — directed-graph substrate for register-saturation analysis
//!
//! This crate provides the graph algorithms the register-saturation framework
//! is built on. It is deliberately self-contained (no external graph crate):
//! the paper's algorithms need tight control over edge latencies (which may be
//! negative for VLIW/EPIC serialization arcs), tombstone edge removal, and
//! poset algorithms (Dilworth antichains via Hopcroft–Karp matching) that are
//! not available off the shelf.
//!
//! ## Modules
//!
//! - [`graph`]: arena-based directed multigraph with `i64` edge latencies.
//! - [`topo`]: topological sorting and cycle extraction.
//! - [`paths`]: single-source and all-pairs *longest* paths on DAGs
//!   (the scheduling-theoretic `lp(u, v)` of the paper), which also answer
//!   reachability.
//! - [`matching`]: Hopcroft–Karp maximum bipartite matching with König
//!   vertex-cover extraction.
//! - [`antichain`]: maximum antichain of a poset (Dilworth machinery used
//!   to evaluate `RS` for a fixed killing function).
//! - [`interval`]: half-open lifetime intervals `(a, b]` and the sweep that
//!   computes the maximum number of simultaneously alive values.
//! - [`dot`]: Graphviz export for debugging and documentation.
//!
//! ## Quick example
//!
//! ```
//! use rs_graph::{DiGraph, paths, antichain};
//!
//! let mut g: DiGraph<&str> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 2);
//! g.add_edge(b, c, 3);
//! let order = rs_graph::topo::topo_sort(&g).unwrap();
//! assert_eq!(order.len(), 3);
//! let lp = paths::longest_from(&g, a);
//! assert_eq!(lp[c.index()], Some(5));
//! ```

#![forbid(unsafe_code)]

pub mod antichain;
pub mod dot;
pub mod graph;
pub mod interval;
pub mod matching;
pub mod paths;
pub mod topo;

pub use antichain::{max_antichain_into, AntichainScratch};
pub use graph::{DiGraph, EdgeId, NodeId};
pub use interval::{max_overlap, Interval};
pub use matching::{hopcroft_karp_into, BipartiteGraph, MatchingScratch};
pub use topo::{cycle_witness, is_acyclic, topo_sort, topo_sort_into, CycleError};

/// The sentinel a [`paths::LongestPaths`] table starts every cell at:
/// `i64::MIN / 4`, far enough below every real path sum (inside ±2^60)
/// that relaxing it with a plain `max` never lifts it into their range and
/// never overflows. The table reads any value ≤ `NO_PATH / 2` as "no
/// path".
pub const NO_PATH: i64 = i64::MIN / 4;

/// Largest edge latency magnitude, `2^31 − 1`: [`DiGraph::add_edge`] and
/// the DDG parser reject anything beyond ±`MAX_LATENCY`, which keeps every
/// longest-path sum of a graph with fewer than 2^29 nodes inside ±2^60.
pub const MAX_LATENCY: i64 = (1 << 31) - 1;

//! # rs-serve — the warm-engine analysis service
//!
//! Everything behind `rsat serve` and `rsat corpus`, and the single
//! execution path they share with the one-shot CLI subcommands:
//!
//! - [`dispatch::Dispatcher`] — one warm [`rs_core::RsEngine`] per worker,
//!   per-request fault isolation (panics and malformed payloads answer
//!   `ok:false`, never kill the process), optional memoization;
//! - [`corpus`] — the batch runner: one validated request applied to every
//!   `.ddg` file of a directory, one dispatcher per worker thread, with
//!   resumable run checkpoints and the typed report writer
//!   ([`corpus::write_report`]) that the experiments binary shares;
//! - [`cache::MemoCache`] — content-keyed result cache (DAG bytes + op +
//!   params) with hit/miss counters surfaced in every response;
//! - [`pool::ServePool`] — a bounded work queue with backpressure feeding
//!   per-worker dispatchers, plus queue-wait load shedding (in flight, a
//!   request's deadline is polled by the solvers themselves, down to the
//!   simplex pivot loops);
//! - [`fault::FaultPlan`] — deterministic fault injection (forced panics,
//!   delays, spurious errors) for chaos testing the above;
//! - [`server`] — newline-delimited JSON transports (stdio, Unix socket)
//!   with in-order response reassembly.
//!
//! The request/response schema itself ([`rs_core::request`]) lives in
//! `rs-core`; this crate depends on `rs-sched` so the `pipeline` operation
//! can schedule and allocate, which is why execution cannot live in
//! `rs-core` (the scheduler depends on it).

#![forbid(unsafe_code)]
// A request path answers a typed `RsError`, never a panic; tests are
// exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod corpus;
pub mod dispatch;
pub mod fault;
pub mod pool;
pub mod server;

pub use cache::MemoCache;
pub use corpus::{render_text, run_corpus, write_report, CorpusOptions, CorpusSummary};
pub use dispatch::{process_line, process_line_at, Dispatcher};
pub use fault::{FaultAction, FaultPlan};
pub use pool::{Job, PoolHandle, ResponseSink, ServeConfig, ServePool, ServeStats};
pub use server::{serve_io, InOrderSink, UnixServer};

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// A worker that panics while holding one of the service's locks has
/// already been isolated and answered `ok:false` by the dispatcher's
/// panic boundary; propagating the poison would turn that one contained
/// failure into a process-wide outage on the next lock. Every structure
/// guarded this way (memo cache, connection list, in-order sink, bounded
/// queue, corpus checkpoint list) is consistent after any partial update,
/// so continuing with the recovered state is sound.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

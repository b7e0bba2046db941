//! The worker pool: a bounded queue feeding per-worker [`Dispatcher`]s.
//!
//! Backpressure is the queue bound — [`PoolHandle::submit`] blocks the
//! producer (the stdio/socket reader) while the queue is full, so a slow
//! consumer throttles intake instead of growing memory without bound.

use crate::cache::MemoCache;
use crate::dispatch::{process_line_at, Dispatcher};
use crate::fault::FaultPlan;
use rs_core::request::{codes, RsResponse};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A blocking bounded MPMC queue (mutex + condvars).
pub struct Bounded<T> {
    state: Mutex<BoundedState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct BoundedState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(BoundedState {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks until there is room, then enqueues. Returns `false` (item
    /// dropped) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = crate::lock_recover(&self.state);
        loop {
            if state.closed {
                return false;
            }
            if state.items.len() < state.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            state = self.not_full.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Blocks until an item is available; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = crate::lock_recover(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        let mut state = crate::lock_recover(&self.state);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Where a worker delivers a finished response.
///
/// `seq` is the submission sequence number; sinks that care about output
/// order (the stdio server) reassemble with it, sinks that do not (load
/// generators) just record.
pub trait ResponseSink: Send + Sync {
    /// Delivers response number `seq`, both typed and pre-serialized.
    fn emit(&self, seq: u64, response: &RsResponse, json: &str);
}

/// One queued request line.
pub struct Job {
    /// Submission sequence number (per sink).
    pub seq: u64,
    /// The raw request line (JSON).
    pub line: String,
    /// Where the response goes.
    pub sink: Arc<dyn ResponseSink>,
    /// When the job entered the queue — a request's `timeout_ms` budget
    /// is anchored here, so queue wait counts against its deadline and
    /// jobs whose whole budget drained while queued are shed.
    pub enqueued: Instant,
}

impl Job {
    /// A job stamped with the current time as its enqueue instant.
    pub fn new(seq: u64, line: String, sink: Arc<dyn ResponseSink>) -> Self {
        Job {
            seq,
            line,
            sink,
            enqueued: Instant::now(),
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (0 = one per available CPU, capped at 8).
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue: usize,
    /// Memoization cache capacity, in results.
    pub cache_capacity: usize,
    /// Fault injection plan (chaos testing); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue: 64,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The worker count after resolving the `0 = auto` default.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Request/outcome counters shared by all workers.
#[derive(Default)]
pub struct PoolCounters {
    requests: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
}

/// State shared between the pool owner, connection readers, and workers.
pub struct PoolShared {
    queue: Bounded<Job>,
    cache: Arc<MemoCache>,
    counters: PoolCounters,
}

/// A cloneable submission handle (used by per-connection reader threads).
#[derive(Clone)]
pub struct PoolHandle(Arc<PoolShared>);

impl PoolHandle {
    /// Enqueues a job, blocking while the queue is full (backpressure).
    /// Returns `false` if the pool has shut down.
    pub fn submit(&self, job: Job) -> bool {
        self.0.queue.push(job)
    }
}

/// Cumulative service statistics, reported at shutdown.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Requests dequeued by workers.
    pub requests: u64,
    /// `ok:true` responses.
    pub ok: u64,
    /// `ok:false` responses (includes timeouts and shed requests).
    pub failed: u64,
    /// Deadline-expired responses (code `timeout`, partial result).
    pub timeouts: u64,
    /// Requests shed before execution (code `overloaded`).
    pub shed: u64,
    /// Memoization cache hits.
    pub cache_hits: u64,
    /// Memoization cache misses.
    pub cache_misses: u64,
}

/// A pool of worker threads, each owning a warm [`Dispatcher`] over one
/// shared [`MemoCache`].
pub struct ServePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServePool {
    /// Spawns the workers.
    pub fn new(cfg: &ServeConfig) -> Self {
        let n = cfg.effective_workers();
        let shared = Arc::new(PoolShared {
            queue: Bounded::new(cfg.queue),
            cache: Arc::new(MemoCache::with_capacity(cfg.cache_capacity)),
            counters: PoolCounters::default(),
        });
        #[expect(
            clippy::expect_used,
            reason = "pool construction is startup, not a request path; failing to spawn means the service never comes up"
        )]
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let faults = cfg.faults.clone();
                std::thread::Builder::new()
                    .name(format!("rsat-worker-{i}"))
                    .spawn(move || worker_loop(&shared, faults))
                    .expect("spawn worker")
            })
            .collect();
        ServePool { shared, workers }
    }

    /// A submission handle for reader threads.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle(Arc::clone(&self.shared))
    }

    /// Enqueues a job, blocking while the queue is full (backpressure).
    pub fn submit(&self, job: Job) -> bool {
        self.shared.queue.push(job)
    }

    /// Closes the queue, drains in-flight work, joins the workers.
    pub fn shutdown(self) -> ServeStats {
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        let counters = &self.shared.counters;
        let (cache_hits, cache_misses) = self.shared.cache.counters();
        ServeStats {
            requests: counters.requests.load(Ordering::Relaxed),
            ok: counters.ok.load(Ordering::Relaxed),
            failed: counters.failed.load(Ordering::Relaxed),
            timeouts: counters.timeouts.load(Ordering::Relaxed),
            shed: counters.shed.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
        }
    }
}

fn worker_loop(shared: &PoolShared, faults: Option<Arc<FaultPlan>>) {
    let mut dispatcher = Dispatcher::with_cache(Arc::clone(&shared.cache));
    if let Some(plan) = faults {
        dispatcher.set_faults(plan);
    }
    while let Some(job) = shared.queue.pop() {
        let (response, json) = process_line_at(&mut dispatcher, &job.line, job.enqueued);
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if response.ok {
            shared.counters.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            match &response.error {
                Some(e) if e.code() == codes::TIMEOUT => {
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Some(e) if e.code() == codes::OVERLOADED => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        job.sink.emit(job.seq, &response, &json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bounded_queue_blocks_then_drains() {
        let q = Arc::new(Bounded::new(2));
        assert!(q.push(1));
        assert!(q.push(2));
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(3));
        // the pusher is blocked until a pop frees a slot
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!pusher.is_finished(), "push must block while full");
        assert_eq!(q.pop(), Some(1));
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.pop(), None);
        assert!(!q.push(4), "closed queue rejects pushes");
    }

    #[test]
    fn idle_pool_shuts_down_without_waiting_out_a_sweep() {
        // No background thread outlives the workers: an idle pool's
        // shutdown only closes the queue and joins them.
        let cfg = ServeConfig::default();
        let pool = ServePool::new(&cfg);
        let start = Instant::now();
        pool.shutdown();
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "idle shutdown took {took:?}"
        );
    }
}

//! The worker pool: a bounded queue feeding per-worker [`Dispatcher`]s.
//!
//! Backpressure is the queue bound — [`PoolHandle::submit`] blocks the
//! producer (the stdio/socket reader) while the queue is full, so a slow
//! consumer throttles intake instead of growing memory without bound.

use crate::cache::MemoCache;
use crate::checkpoint::CheckpointStore;
use crate::dispatch::{process_line_at, Dispatcher, WatchSlot};
use crate::fault::FaultPlan;
use rs_core::request::{codes, RsResponse};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Watchdog grace beyond a request's deadline before its token is
    /// force-cancelled and the worker's engine marked for replacement.
    pub grace_ms: u64,
    /// Fault injection plan (chaos testing); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue: 64,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            grace_ms: 1000,
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
    watchdog_cancels: AtomicU64,
    engines_replaced: AtomicU64,
}

/// State shared between the pool owner, connection readers, and watchdog.
pub struct PoolShared {
    queue: Bounded<Job>,
    cache: Arc<MemoCache>,
    /// Interrupted-search checkpoints, shared by every worker so a retry
    /// resumes no matter which worker picks it up. This is also how a
    /// watchdog force-cancel *salvages* work: the cancelled solve still
    /// returns cooperatively, its checkpoint lands here, and the retry
    /// continues from it instead of paying for the lost nodes again.
    ckpts: Arc<CheckpointStore>,
    counters: PoolCounters,
    slots: Vec<WatchSlot>,
    /// Set by [`ServePool::shutdown`], which then wakes the watchdog out of
    /// its timed wait through `watchdog_wake`.
    stop_watchdog: Mutex<bool>,
    watchdog_wake: Condvar,
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
#[derive(Clone, Copy, Debug, serde::Serialize)]
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
    /// Watchdog force-cancels of work stuck past deadline + grace.
    pub watchdog_cancels: u64,
    /// Engines replaced after a forced cancel (panic replacements are
    /// counted under `failed`, not here).
    pub engines_replaced: u64,
    /// Memoization cache hits.
    pub cache_hits: u64,
    /// Memoization cache misses.
    pub cache_misses: u64,
    /// Interrupted-search checkpoints deposited for later resume.
    pub checkpoints_stored: u64,
    /// Retried requests that resumed a parked checkpoint instead of
    /// restarting their search.
    pub resumed: u64,
}

/// A pool of worker threads, each owning a warm [`Dispatcher`] over one
/// shared [`MemoCache`].
pub struct ServePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServePool {
    /// Spawns the workers and the watchdog.
    pub fn new(cfg: &ServeConfig) -> Self {
        let n = cfg.effective_workers();
        let shared = Arc::new(PoolShared {
            queue: Bounded::new(cfg.queue),
            cache: Arc::new(MemoCache::with_capacity(cfg.cache_capacity)),
            ckpts: Arc::new(CheckpointStore::default()),
            counters: PoolCounters::default(),
            slots: (0..n).map(|_| WatchSlot::default()).collect(),
            stop_watchdog: Mutex::new(false),
            watchdog_wake: Condvar::new(),
        });
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let faults = cfg.faults.clone();
                std::thread::Builder::new()
                    .name(format!("rsat-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i, faults))
                    // lint:allow(S-01) pool construction is startup, not a request path; failing to spawn means the service never comes up
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            let grace = Duration::from_millis(cfg.grace_ms);
            std::thread::Builder::new()
                .name("rsat-watchdog".into())
                .spawn(move || watchdog_loop(&shared, grace))
                // lint:allow(S-01) pool construction is startup, not a request path; failing to spawn means the service never comes up
                .expect("spawn watchdog")
        };
        ServePool {
            shared,
            workers,
            watchdog: Some(watchdog),
        }
    }

    /// A submission handle for reader threads.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle(Arc::clone(&self.shared))
    }

    /// Enqueues a job, blocking while the queue is full (backpressure).
    pub fn submit(&self, job: Job) -> bool {
        self.shared.queue.push(job)
    }

    /// The shared memoization cache.
    pub fn cache(&self) -> Arc<MemoCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        snapshot(&self.shared)
    }

    /// Closes the queue, drains in-flight work, joins the workers and the
    /// watchdog.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        *crate::lock_recover(&self.shared.stop_watchdog) = true;
        self.shared.watchdog_wake.notify_all();
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        snapshot(&self.shared)
    }
}

fn snapshot(shared: &PoolShared) -> ServeStats {
    let (cache_hits, cache_misses) = shared.cache.counters();
    let (checkpoints_stored, resumed) = shared.ckpts.counters();
    ServeStats {
        requests: shared.counters.requests.load(Ordering::Relaxed),
        ok: shared.counters.ok.load(Ordering::Relaxed),
        failed: shared.counters.failed.load(Ordering::Relaxed),
        timeouts: shared.counters.timeouts.load(Ordering::Relaxed),
        shed: shared.counters.shed.load(Ordering::Relaxed),
        watchdog_cancels: shared.counters.watchdog_cancels.load(Ordering::Relaxed),
        engines_replaced: shared.counters.engines_replaced.load(Ordering::Relaxed),
        cache_hits,
        cache_misses,
        checkpoints_stored,
        resumed,
    }
}

fn worker_loop(shared: &PoolShared, index: usize, faults: Option<Arc<FaultPlan>>) {
    let mut dispatcher = Dispatcher::with_cache(Arc::clone(&shared.cache));
    dispatcher.set_checkpoint_store(Arc::clone(&shared.ckpts));
    let slot = shared.slots[index].clone();
    dispatcher.set_watch(slot.clone());
    if let Some(plan) = faults {
        dispatcher.set_faults(plan);
    }
    while let Some(job) = shared.queue.pop() {
        let (response, json) = process_line_at(&mut dispatcher, &job.line, job.enqueued);
        if slot.take_forced() {
            // A watchdog had to force this request's cancel: the engine
            // may have been interrupted somewhere its own polls never
            // reach, so swap it out before the next request.
            dispatcher.replace_engine();
            shared
                .counters
                .engines_replaced
                .fetch_add(1, Ordering::Relaxed);
        }
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if response.ok {
            shared.counters.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            match response.error.as_ref().map(|e| e.code.as_str()) {
                Some(codes::TIMEOUT) => {
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Some(codes::OVERLOADED) => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        job.sink.emit(job.seq, &response, &json);
    }
}

/// Sweeps every worker's [`WatchSlot`] until shutdown, force-cancelling
/// in-flight work stuck past its deadline plus `grace`. Between sweeps it
/// waits on `watchdog_wake` rather than sleeping, so shutdown joins it at
/// once instead of waiting out the rest of a sweep.
fn watchdog_loop(shared: &PoolShared, grace: Duration) {
    // Sweep often enough that a stuck request overshoots its grace by at
    // most ~1/4 of it (bounded to keep an idle daemon cheap).
    let sweep = (grace / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    loop {
        let now = Instant::now();
        for slot in &shared.slots {
            if slot.check(now, grace) {
                shared
                    .counters
                    .watchdog_cancels
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let stop = crate::lock_recover(&shared.stop_watchdog);
        let (stop, _) = shared
            .watchdog_wake
            .wait_timeout_while(stop, sweep, |stop| !*stop)
            .unwrap_or_else(|p| p.into_inner());
        if *stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // At the default grace the watchdog sweeps every 250 ms; shutdown
        // must wake it instead of waiting for the sweep to end.
        let cfg = ServeConfig::default();
        assert_eq!(cfg.grace_ms, 1000);
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

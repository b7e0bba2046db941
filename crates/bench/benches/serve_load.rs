//! Load generator for the `rsat serve` warm-engine service: drives a
//! [`ServePool`] with repeated passes over a corpus of unique random DAGs
//! and reports request throughput, end-to-end latency percentiles, and the
//! memoization-cache hit rate (JSON report in `results/serve_load.json`).
//!
//! Hand-rolled harness (same convention as `milp_scaling`: `--bench` runs
//! the full grid, `--test` a smoke grid) because the quantities of interest
//! are service-level — req/sec, p50/p99, hit rate — not per-iteration
//! micro-times.
//!
//! Asserted invariants:
//! - every submitted line is answered (the daemon never wedges);
//! - one malformed line injected mid-stream answers `ok:false` and does
//!   not disturb any other response;
//! - a cache hit is ≥ 5× faster than the cold computation of the same
//!   request (server-side `millis`, cold mean vs hit mean).

use rs_bench::common::{random_cases, write_report};
use rs_core::model::Target;
use rs_core::parse::print_ddg;
use rs_core::request::{RsOp, RsRequest, RsResponse};
use rs_serve::{Dispatcher, Job, ResponseSink, ServeConfig, ServePool};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed request, as observed by the load generator.
struct Done {
    ok: bool,
    hit: bool,
    /// Server-side dispatch time (what the cache shortcuts).
    engine_millis: f64,
    /// End-to-end submit → response latency.
    latency_millis: f64,
}

/// Records submit times and completions; order-indifferent (no reassembly —
/// this sink measures, it does not stream).
#[derive(Default)]
struct TimingSink {
    submits: Mutex<Vec<Instant>>,
    done: Mutex<Vec<Done>>,
}

impl ResponseSink for TimingSink {
    fn emit(&self, seq: u64, response: &RsResponse, _json: &str) {
        let submitted = self.submits.lock().expect("submit times")[seq as usize];
        self.done.lock().expect("done list").push(Done {
            ok: response.ok,
            hit: response.cache.hit,
            engine_millis: response.millis,
            latency_millis: submitted.elapsed().as_secs_f64() * 1e3,
        });
    }
}

#[derive(Serialize)]
struct Report {
    bench_mode: bool,
    workers: usize,
    unique_dags: usize,
    passes: usize,
    requests: usize,
    ok: u64,
    failed: u64,
    wall_millis: f64,
    requests_per_sec: f64,
    latency_p50_millis: f64,
    latency_p99_millis: f64,
    cold_mean_millis: f64,
    hit_mean_millis: f64,
    /// Cold mean over hit mean — the memoization win.
    hit_speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = args.iter().any(|a| a == "--bench") && !args.iter().any(|a| a == "--test");

    let (sizes, count, passes, workers): (&[usize], usize, usize, usize) = if bench_mode {
        (&[16, 24, 32, 48], 4, 8, 4)
    } else {
        (&[12, 16, 24], 2, 4, 2)
    };

    // Unique request corpus: distinct random DAGs, serialized once. Every
    // pass after the first re-requests the same content, so it should be
    // answered from the memoization cache.
    let requests: Vec<RsRequest> = random_cases(sizes, count, Target::superscalar())
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut req = RsRequest::new(RsOp::Analyze, print_ddg(&case.ddg));
            req.id = Some(format!("u{i}"));
            req
        })
        .collect();
    let lines: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize"))
        .collect();
    println!(
        "serve_load: {} unique DAGs × {passes} passes, {workers} workers",
        requests.len()
    );

    // Cold baseline: a cache-less dispatcher (the one-shot CLI path).
    let mut cold = Dispatcher::new();
    let cold_millis: Vec<f64> = requests
        .iter()
        .map(|r| {
            let resp = cold.dispatch(r);
            assert!(resp.ok, "cold dispatch failed: {:?}", resp.error);
            resp.millis
        })
        .collect();
    let cold_mean_millis = mean(&cold_millis);

    // Build the submission stream: `passes` passes over the corpus with one
    // malformed line injected mid-stream (containment check under load).
    let mut stream: Vec<String> = Vec::with_capacity(requests.len() * passes + 1);
    for _ in 0..passes {
        stream.extend(lines.iter().cloned());
    }
    stream.insert(stream.len() / 2, "{ this is not a request".to_string());
    let total = stream.len();

    let cfg = ServeConfig {
        workers,
        queue: 32,
        cache_capacity: 4096,
        ..Default::default()
    };
    let pool = ServePool::new(&cfg);
    let sink = Arc::new(TimingSink::default());
    let start = Instant::now();
    for (seq, line) in stream.into_iter().enumerate() {
        sink.submits
            .lock()
            .expect("submit times")
            .push(Instant::now());
        let accepted = pool.submit(Job::new(
            seq as u64,
            line,
            Arc::clone(&sink) as Arc<dyn ResponseSink>,
        ));
        assert!(accepted, "pool rejected a submission");
    }
    let stats = pool.shutdown();
    let wall_millis = start.elapsed().as_secs_f64() * 1e3;

    let done = sink.done.lock().expect("done list");
    assert_eq!(done.len(), total, "every submitted line must be answered");
    let failed = done.iter().filter(|d| !d.ok).count();
    assert_eq!(
        failed, 1,
        "exactly the injected malformed line fails; got {failed}"
    );
    assert_eq!(stats.requests, total as u64);
    assert_eq!(stats.failed, 1);

    let hit_millis: Vec<f64> = done
        .iter()
        .filter(|d| d.hit)
        .map(|d| d.engine_millis)
        .collect();
    assert!(
        hit_millis.len() as u64 == stats.cache_hits && !hit_millis.is_empty(),
        "repeat passes must hit the cache (hits = {})",
        stats.cache_hits
    );
    let hit_mean_millis = mean(&hit_millis);
    let hit_speedup = cold_mean_millis / hit_mean_millis.max(f64::EPSILON);

    let mut latencies: Vec<f64> = done
        .iter()
        .filter(|d| d.ok)
        .map(|d| d.latency_millis)
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let requests_per_sec = total as f64 / (wall_millis / 1e3);
    let cache_hit_rate =
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;

    println!("{total} requests in {wall_millis:.1} ms = {requests_per_sec:.0} req/sec");
    println!("latency p50 {p50:.3} ms, p99 {p99:.3} ms");
    println!(
        "cache: {} hits / {} misses (hit rate {:.0}%)",
        stats.cache_hits,
        stats.cache_misses,
        cache_hit_rate * 100.0
    );
    println!(
        "cold mean {cold_mean_millis:.3} ms vs hit mean {hit_mean_millis:.5} ms = {hit_speedup:.0}x"
    );
    assert!(
        hit_speedup >= 5.0,
        "a cache hit must be >= 5x faster than cold computation, got {hit_speedup:.2}x"
    );

    let report = Report {
        bench_mode,
        workers,
        unique_dags: requests.len(),
        passes,
        requests: total,
        ok: stats.ok,
        failed: stats.failed,
        wall_millis,
        requests_per_sec,
        latency_p50_millis: p50,
        latency_p99_millis: p99,
        cold_mean_millis,
        hit_mean_millis,
        hit_speedup,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_hit_rate,
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let text = format!(
        "serve_load: {} requests ({} unique × {} passes + 1 malformed), {} workers; \
         {:.0} req/sec, p50 {:.3} ms, p99 {:.3} ms; hit rate {:.0}%, hit speedup {:.0}x\n",
        report.requests,
        report.unique_dags,
        report.passes,
        report.workers,
        report.requests_per_sec,
        report.latency_p50_millis,
        report.latency_p99_millis,
        report.cache_hit_rate * 100.0,
        report.hit_speedup,
    );
    write_report(&out_dir, "serve_load", &text, &report);
    println!(
        "report written to {}",
        out_dir.join("serve_load.json").display()
    );
}

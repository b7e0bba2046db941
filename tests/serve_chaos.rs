//! Stream tests for the `rsat serve` worker pool. An in-process
//! [`ServePool`] is driven under injected panics, delays and spurious
//! engine errors plus tight per-request deadlines: whatever is injected,
//! every request must get exactly one well-typed answer (a timeout
//! carrying its partial result), the stats ledger must balance, and the
//! pool must shut down cleanly. Deadlines are honoured by the solvers' own
//! polls alone. A clean, cached stream must answer every line, fail only
//! its malformed one, and report exactly the cache hits it served.
//!
//! Injected panics print their messages on stderr; containing them is
//! what the test asserts.

use rs_bench::common::random_cases;
use rs_core::model::Target;
use rs_core::parse::print_ddg;
use rs_core::request::{codes, RsOp, RsRequest, RsResponse};
use rs_serve::{FaultPlan, Job, ResponseSink, ServeConfig, ServePool, ServeStats};
use std::sync::{Arc, Mutex};

/// Collects every answer per sequence number (no reassembly): the core
/// assertion is exactly-once delivery of a well-typed response for every
/// submitted line.
struct AnswerLog {
    answers: Mutex<Vec<Vec<RsResponse>>>,
}

impl ResponseSink for AnswerLog {
    fn emit(&self, seq: u64, response: &RsResponse, _json: &str) {
        self.answers.lock().expect("answer log")[seq as usize].push(response.clone());
    }
}

/// Sends `passes` passes over `lines`, with one malformed line inserted
/// halfway, through a pool built from `cfg`. Returns every answer per
/// sequence number, the shutdown stats, and the malformed line's sequence
/// number.
fn run_stream(
    lines: &[String],
    passes: usize,
    cfg: &ServeConfig,
) -> (Vec<Vec<RsResponse>>, ServeStats, usize) {
    let mut stream: Vec<String> = Vec::with_capacity(lines.len() * passes + 1);
    for _ in 0..passes {
        stream.extend(lines.iter().cloned());
    }
    let malformed = stream.len() / 2;
    stream.insert(malformed, "{ not json".to_string());
    let total = stream.len();

    let pool = ServePool::new(cfg);
    let log = Arc::new(AnswerLog {
        answers: Mutex::new((0..total).map(|_| Vec::new()).collect()),
    });
    for (seq, line) in stream.into_iter().enumerate() {
        let accepted = pool.submit(Job::new(
            seq as u64,
            line,
            Arc::clone(&log) as Arc<dyn ResponseSink>,
        ));
        assert!(accepted, "pool rejected a submission");
    }
    let stats = pool.shutdown();
    let answers = std::mem::take(&mut *log.answers.lock().expect("answer log"));
    (answers, stats, malformed)
}

#[test]
fn faulty_deadline_stream_answers_every_request_once_and_typed() {
    let cases = random_cases(&[12, 16], 2, Target::superscalar());
    let lines: Vec<String> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut req = RsRequest::new(RsOp::Analyze, print_ddg(&case.ddg));
            req.id = Some(format!("c{i}"));
            req.cache = false; // every request exercises the execution path
            match i % 3 {
                // A tight deadline over the exact solvers: timeout pressure
                // on the deepest cancellation points, the simplex loops.
                0 => {
                    req.exact = true;
                    req.ilp = true;
                    req.timeout_ms = Some(2);
                }
                // A deadline the injected 30 ms delays blow through:
                // exercises shedding and expiry before the first poll.
                1 => req.timeout_ms = Some(25),
                _ => {}
            }
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect();
    let plan = FaultPlan::from_spec("panic=7,delay=5:30,error=11").expect("fault spec");
    let cfg = ServeConfig {
        workers: 2,
        queue: 16,
        cache_capacity: 1024,
        faults: Some(Arc::new(plan)),
    };
    let (answers, stats, _) = run_stream(&lines, 4, &cfg);
    let total = answers.len();

    // Exactly one well-typed answer per request, whatever was injected.
    let known = [
        codes::REQUEST,
        codes::PARSE,
        codes::TIMEOUT,
        codes::OVERLOADED,
        codes::PANIC,
        codes::ENGINE,
        codes::INFEASIBLE,
    ];
    let mut timeouts_with_partial = 0u64;
    for (seq, got) in answers.iter().enumerate() {
        assert_eq!(got.len(), 1, "request {seq} must be answered exactly once");
        let resp = &got[0];
        if resp.ok {
            assert!(resp.result.is_some(), "ok answer {seq} carries a result");
            continue;
        }
        let err = resp
            .error
            .as_ref()
            .unwrap_or_else(|| panic!("failed answer {seq} must carry a typed error"));
        assert!(
            known.contains(&err.code()),
            "answer {seq} has unexpected error code `{}`",
            err.code()
        );
        if err.code() == codes::TIMEOUT {
            assert!(
                resp.result.is_some(),
                "timeout answer {seq} must attach its partial result"
            );
            timeouts_with_partial += 1;
        }
    }

    // The stats ledger balances: nothing lost, nothing double-counted.
    assert_eq!(stats.requests, total as u64);
    assert_eq!(stats.ok + stats.failed, stats.requests);
    assert!(stats.timeouts + stats.shed <= stats.failed);
    assert_eq!(timeouts_with_partial, stats.timeouts);
    assert!(stats.failed >= 1, "at least the malformed line fails");
}

#[test]
fn cached_stream_answers_every_line_and_counts_every_hit() {
    // A clean stream of random DAGs over four passes, so every pass after
    // the first can be answered from the cache.
    let lines: Vec<String> = random_cases(&[12, 16, 24], 2, Target::superscalar())
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut req = RsRequest::new(RsOp::Analyze, print_ddg(&case.ddg));
            req.id = Some(format!("u{i}"));
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect();
    let cfg = ServeConfig {
        workers: 2,
        queue: 32,
        cache_capacity: 4096,
        faults: None,
    };
    let (answers, stats, malformed) = run_stream(&lines, 4, &cfg);
    let total = answers.len();

    for (seq, got) in answers.iter().enumerate() {
        assert_eq!(got.len(), 1, "request {seq} must be answered exactly once");
    }
    let failed: Vec<usize> = (0..total).filter(|&seq| !answers[seq][0].ok).collect();
    assert_eq!(failed, vec![malformed], "exactly the malformed line fails");
    assert_eq!(stats.requests, total as u64);
    assert_eq!((stats.ok, stats.failed), (total as u64 - 1, 1));

    // The ledger's hits are exactly the answers served from the cache.
    let hits = answers.iter().filter(|got| got[0].cache.hit).count() as u64;
    assert_eq!(hits, stats.cache_hits, "answers marked as cache hits");
    assert!(hits > 0, "repeat passes must hit the cache");
}

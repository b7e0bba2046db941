//! End-to-end checkpoint/resume: interrupted searches continue exactly.
//!
//! The unit suites in `rs-lp` prove interrupt-resume equivalence on
//! synthetic MILPs; this suite checks the same guarantee on the paper's
//! actual Section-3 saturation intLPs through the `rs-core` solver API
//! ([`RsIlp::saturation_resumable`]), plus the wire journey a resume token
//! takes in practice: embedded as an escaped string field inside response
//! JSON, parsed back out, and fed to a fresh solver.

use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_core::SearchCheckpoint;
use rs_kernels::random::{random_ddg, RandomDagConfig};
use serde::Deserialize;

/// A seeded random kernel with a non-trivial float saturation model (the
/// same instance family the scaling bench pins).
fn kernel() -> rs_core::model::Ddg {
    let cfg = RandomDagConfig::sized(12, 0xBEEF + 12 + 7919);
    let ddg = random_ddg(&cfg, Target::superscalar());
    assert!(ddg.values(RegType::FLOAT).len() >= 2, "fixture regressed");
    ddg
}

#[test]
fn interrupted_resume_chain_matches_uninterrupted_on_rs_models() {
    let ddg = kernel();
    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    assert!(full.proven_optimal);

    // Re-run the same search in slices: interrupt every few nodes, carry
    // the checkpoint to the next attempt. Node budgets are cumulative
    // across a resume chain, so each slice raises the limit.
    for step in [1usize, 5, 16] {
        let mut solver = RsIlp::new();
        solver.milp.node_limit = 0;
        let mut resume: Option<SearchCheckpoint> = None;
        let mut slices = 0;
        let run = loop {
            solver.milp.node_limit += step;
            let run = solver.saturation_resumable(&ddg, RegType::FLOAT, resume.as_ref());
            match run.checkpoint {
                Some(ck) => {
                    assert_eq!(ck.resumed_chain() as usize, slices);
                    resume = Some(ck);
                    slices += 1;
                    assert!(slices < 10_000, "chain failed to converge");
                }
                None => break run,
            }
        };
        let sliced = run.result.expect("resumed chain completes");
        assert!(sliced.proven_optimal, "step {step}");
        assert_eq!(sliced.saturation, full.saturation, "step {step}");
        assert_eq!(
            sliced.saturating_values, full.saturating_values,
            "step {step}: different witness"
        );
        // Same tree: cumulative node count and the running trace digest
        // survive every interruption byte-for-byte.
        assert_eq!(
            sliced.milp_stats.nodes, full.milp_stats.nodes,
            "step {step}: node count diverged"
        );
        assert_eq!(
            sliced.milp_stats.trace_digest, full.milp_stats.trace_digest,
            "step {step}: trace digest diverged"
        );
        assert!(
            sliced.milp_stats.resumed,
            "step {step}: chain never resumed"
        );
        assert!(slices >= 1, "step {step}: budget never interrupted");
    }
}

#[test]
fn resume_token_is_rejected_across_accelerator_config_changes() {
    // A checkpoint's frontier is only meaningful for the exact tree its
    // config grows: the fingerprint covers the LP path and the
    // integrality tolerance, so a token minted under the default engine
    // must cold-start — never splice — when either of them changes.
    let ddg = kernel();
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let ck = solver
        .saturation_resumable(&ddg, RegType::FLOAT, None)
        .checkpoint
        .expect("tiny budget interrupts");

    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    let mut reference = RsIlp::new();
    reference.milp.reference_lp = true;
    let mut tolerance = RsIlp::new();
    tolerance.milp.int_tol = 1e-5;
    for (name, fresh) in [("reference LP", reference), ("int_tol", tolerance)] {
        let run = fresh.saturation_resumable(&ddg, RegType::FLOAT, Some(&ck));
        let sol = run.result.expect("cold restart completes");
        assert!(
            !sol.milp_stats.resumed,
            "{name}: drifted config must not resume a foreign token"
        );
        assert!(sol.proven_optimal, "{name}");
        // Different tree shape, same answer.
        assert_eq!(sol.saturation, full.saturation, "{name}");
    }

    // Control: the unchanged config resumes the token it minted.
    let mut same = RsIlp::new();
    same.milp.node_limit = 100_000;
    let sol = same
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&ck))
        .result
        .expect("resume completes");
    assert!(sol.milp_stats.resumed, "control: same config must resume");
    assert_eq!(sol.saturation, full.saturation);
}

#[test]
fn version_2_checkpoint_is_never_resumed() {
    // Older tokens were minted under other fingerprints: version 2 still
    // covered the pricing and pseudocost switches, with a dive reinstall
    // counter among its statistics, and version 3 still covered the
    // integral-objective, presolve, cuts and propagation switches. A real
    // interrupted checkpoint relabelled either way — fingerprint
    // untouched, so only the version gate stands between it and the
    // search — must be rejected outright or cold-start to the
    // uninterrupted answer; it must never be spliced in.
    let ddg = kernel();
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let ck = solver
        .saturation_resumable(&ddg, RegType::FLOAT, None)
        .checkpoint
        .expect("tiny budget interrupts");
    assert_eq!(rs_lp::milp::CHECKPOINT_VERSION, 4);
    let json = ck.to_json();
    let v3 = json.replacen("\"version\":4,", "\"version\":3,", 1);
    let v2 = v3.replacen("\"version\":3,", "\"version\":2,", 1).replacen(
        "\"pseudocost_branches\":",
        "\"dive_reinstalls\":0,\"pseudocost_branches\":",
        1,
    );
    assert!(
        v3.contains("\"version\":3,")
            && v2.contains("\"version\":2,")
            && v2.contains("\"dive_reinstalls\":0,"),
        "rewrite missed the wire layout: {json}"
    );

    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    for (version, old) in [(3, &v3), (2, &v2)] {
        if let Ok(stale) = SearchCheckpoint::from_json(old) {
            let mut fresh = RsIlp::new();
            fresh.milp.node_limit = 100_000;
            let sol = fresh
                .saturation_resumable(&ddg, RegType::FLOAT, Some(&stale))
                .result
                .expect("cold restart completes");
            assert!(
                !sol.milp_stats.resumed,
                "a version-{version} token must cold-start"
            );
            assert!(sol.proven_optimal);
            assert_eq!(sol.saturation, full.saturation);
            assert_eq!(sol.milp_stats.nodes, full.milp_stats.nodes);
            assert_eq!(sol.milp_stats.trace_digest, full.milp_stats.trace_digest);
        }
    }

    // Control: the same token at the current version resumes, so the
    // version alone decided the cold starts above.
    let current = SearchCheckpoint::from_json(&json).expect("token parses");
    let mut same = RsIlp::new();
    same.milp.node_limit = 100_000;
    let sol = same
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&current))
        .result
        .expect("resume completes");
    assert!(sol.milp_stats.resumed, "control: a version-4 token resumes");
}

#[test]
fn resume_token_survives_embedding_in_response_json() {
    let ddg = kernel();
    // Interrupt almost immediately: the checkpoint carries a non-empty
    // frontier (and, depending on timing, incumbent floats as bit
    // patterns — content that must survive JSON string escaping).
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let run = solver.saturation_resumable(&ddg, RegType::FLOAT, None);
    let ck = run.checkpoint.expect("tiny budget interrupts");
    let token = ck.to_json();

    // The journey a token takes in practice: stored as an opaque string
    // field of a result, serialized to a response line, parsed back by a
    // client, and handed to a fresh solver process.
    let carried = rs_core::request::SolveResult {
        saturation: 0,
        proven_optimal: false,
        bound: None,
        resume: Some(token),
        resumed: false,
    };
    let line = serde_json::to_string(&carried).expect("results serialize");
    assert!(line.contains("\\\""), "token JSON arrives escaped");
    let value = serde_json::from_str(&line).expect("line parses");
    let back = rs_core::request::SolveResult::from_value(&value).expect("result parses");
    let restored =
        SearchCheckpoint::from_json(&back.resume.expect("token survives")).expect("token parses");

    let mut fresh = RsIlp::new();
    fresh.milp.node_limit = 100_000;
    let resumed = fresh
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&restored))
        .result
        .expect("resumed solve completes");
    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    assert!(resumed.proven_optimal);
    assert_eq!(resumed.saturation, full.saturation);
    assert_eq!(resumed.milp_stats.nodes, full.milp_stats.nodes);
    assert_eq!(
        resumed.milp_stats.trace_digest,
        full.milp_stats.trace_digest
    );
    assert!(resumed.milp_stats.resumed);
}

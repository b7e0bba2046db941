//! End-to-end checkpoint/resume: interrupted searches continue exactly.
//!
//! The unit suites in `rs-lp` prove interrupt-resume equivalence on
//! synthetic MILPs; this suite checks the same guarantee on the paper's
//! actual Section-3 saturation intLPs through the `rs-core` solver API
//! ([`RsIlp::saturation_resumable`]), and that a checkpoint never resumes
//! under a configuration that grows a different tree.

use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_core::SearchCheckpoint;
use rs_kernels::random::{random_ddg, RandomDagConfig};

/// A seeded random kernel with a non-trivial float saturation model (the
/// size-12 instance `tests/parallel_milp.rs` pins).
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
    // integrality tolerance, so a checkpoint taken under the default
    // engine must cold-start — never splice — when either of them changes.
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

    // Control: the unchanged config resumes the checkpoint it took.
    let mut same = RsIlp::new();
    same.milp.node_limit = 100_000;
    let sol = same
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&ck))
        .result
        .expect("resume completes");
    assert!(sol.milp_stats.resumed, "control: same config must resume");
    assert_eq!(sol.saturation, full.saturation);
}

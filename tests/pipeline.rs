//! F1 — the Figure-1 pipeline, end to end across all crates:
//! saturation analysis → reduction → resource-constrained scheduling →
//! register allocation, with the paper's guarantee: zero spills whenever
//! the reduction succeeded.

use register_saturation::prelude::*;
use rs_core::engine::RsEngine;
use rs_core::model::Target;
use rs_kernels::random::{random_ddg, RandomDagConfig};

fn full_pipeline(mut ddg: Ddg, budget: usize) -> (bool, usize) {
    let reducer = Reducer { verify_exact: true };
    let mut all_fit = true;
    for t in [RegType::INT, RegType::FLOAT] {
        if ddg.values(t).is_empty() {
            continue;
        }
        if !reducer.reduce(&mut ddg, t, budget).fits() {
            all_fit = false;
            continue;
        }
        // the exact saturation must agree with the fit claim
        let rs = ExactRs::new().saturation(&ddg, t).saturation;
        assert!(
            rs <= budget,
            "type {t:?} claims fit but exact RS = {rs} > {budget}"
        );
    }
    if !all_fit {
        return (false, 0);
    }
    let sched = ListScheduler::new(Resources::four_issue()).schedule(&ddg);
    assert!(rs_core::lifetime::is_valid_schedule(&ddg, &sched.sigma));
    let mut spills = 0;
    for t in ddg.reg_types() {
        let alloc = RegisterAllocator::new().allocate(&ddg, t, &sched.sigma, budget);
        spills += alloc.spilled.len();
        // allocated registers never exceed the budget
        assert!(alloc.registers_used <= budget);
    }
    (true, spills)
}

#[test]
fn kernels_pipeline_no_spills() {
    for k in rs_kernels::corpus() {
        let ddg = (k.build)(Target::superscalar());
        for budget in [4usize, 6, 8] {
            let (fits, spills) = full_pipeline(ddg.clone(), budget);
            if fits {
                assert_eq!(spills, 0, "{} at budget {budget} spilled", k.name);
            }
        }
    }
}

#[test]
fn random_dags_pipeline_no_spills() {
    for seed in 0..15u64 {
        let ddg = random_ddg(
            &RandomDagConfig::sized(18, 0xAB + seed),
            Target::superscalar(),
        );
        for budget in [3usize, 5] {
            let (fits, spills) = full_pipeline(ddg.clone(), budget);
            if fits {
                assert_eq!(spills, 0, "seed {seed} at budget {budget} spilled");
            }
        }
    }
}

#[test]
fn vliw_pipeline_no_spills() {
    for k in rs_kernels::corpus().into_iter().take(6) {
        let ddg = (k.build)(Target::vliw());
        let (fits, spills) = full_pipeline(ddg.clone(), 6);
        if fits {
            assert_eq!(spills, 0, "{} (VLIW) spilled", k.name);
        }
    }
}

#[test]
fn pipeline_is_idempotent_when_fitting() {
    // reducing every type twice must not add more arcs the second time
    let k = rs_kernels::corpus()
        .into_iter()
        .find(|k| k.name == "ddot")
        .unwrap();
    let mut ddg = (k.build)(Target::superscalar());
    let mut engine = RsEngine::new();
    let mut reduce_all = |ddg: &mut Ddg| {
        ddg.reg_types()
            .into_iter()
            .map(|t| engine.reduce(ddg, t, 6))
            .collect::<Vec<_>>()
    };
    let first = reduce_all(&mut ddg);
    let edges_after_first = ddg.graph().edge_count();
    let second = reduce_all(&mut ddg);
    assert!(first.iter().chain(&second).all(ReduceOutcome::fits));
    assert!(
        second.iter().all(|o| o.added_arcs().is_empty()),
        "second run must be a no-op"
    );
    assert_eq!(ddg.graph().edge_count(), edges_after_first);
}

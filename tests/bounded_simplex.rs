//! Differential validation of the bounded-variable simplex on real
//! register-saturation intLPs.
//!
//! The bounded-variable rewrite (`rs_lp::simplex`) keeps the
//! explicit-bound-row formulation alive as a test-only reference engine
//! (`rs_lp::reference`). These tests build Section-3 saturation models from
//! random kernels and assert that the two formulations agree on the
//! optimal objective for every thread count, while the bounded path's
//! tableau contains exactly the structural constraint rows — zero bound
//! rows — and the reference path carries one extra row (and slack) per
//! finite upper bound.

mod common;

use common::budget_limited;
use proptest::prelude::*;
use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};
use rs_lp::MilpConfig;

/// Builds the saturation intLP of a seeded random kernel; `None` when the
/// kernel has fewer than two float values (trivial model).
fn rs_model(ops: usize, seed: u64) -> Option<rs_lp::Model> {
    let cfg = RandomDagConfig::sized(ops, seed);
    let ddg = random_ddg(&cfg, Target::superscalar());
    if ddg.values(RegType::FLOAT).len() < 2 {
        return None;
    }
    Some(RsIlp::new().build_model(&ddg, RegType::FLOAT).0)
}

proptest! {
    // Each case solves a full intLP three times (reference + two thread
    // counts); keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bounded_matches_reference_on_random_kernel_intlps(
        ops in 6usize..=10,
        seed in 0u64..100,
    ) {
        let Some(model) = rs_model(ops, 0xB0DED + seed) else {
            return Ok(());
        };
        // Cliff instances exist in this family; a short budget keeps the
        // test fast and budget-limited runs are skipped symmetrically.
        let cfg = MilpConfig {
            time_limit: Some(std::time::Duration::from_secs(10)),
            ..MilpConfig::default()
        };
        // Budget-class outcomes (how far a search gets within the wall
        // clock) are machine- and thread-dependent and skipped; every
        // other divergence — including a spurious Infeasible from either
        // formulation — must fail the test.
        let reference = rs_lp::reference::solve_milp(&model, &cfg);
        if budget_limited(&reference) {
            return Ok(());
        }
        for threads in [1usize, 2] {
            let tcfg = MilpConfig { threads, ..cfg.clone() };
            let bounded = rs_lp::solve(&model, &tcfg);
            if budget_limited(&bounded) {
                continue;
            }
            match (&bounded, &reference) {
                (Ok(b), Ok(r)) => {
                    prop_assert!(
                        (b.objective - r.objective).abs() < 1e-6,
                        "ops={} seed={} threads={}: bounded {} vs reference {}",
                        ops, seed, threads, b.objective, r.objective
                    );
                    // Both engines presolve the same way, so the reference
                    // tableau exceeds the bounded one by exactly its
                    // explicit bound rows; the bounded path never has more
                    // rows than the structural constraints (presolve may
                    // fold singletons away, never add rows).
                    prop_assert!(
                        r.stats.rows > b.stats.rows,
                        "reference must carry explicit bound rows"
                    );
                    prop_assert!(
                        b.stats.rows <= model.num_constraints(),
                        "bounded path emitted bound rows"
                    );
                    prop_assert!(model.check_feasible(&b.values, 1e-5).is_ok());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(
                    false,
                    "ops={} seed={} threads={}: outcome classes diverge: bounded {:?} vs reference {:?}",
                    ops, seed, threads,
                    a.as_ref().map(|s| s.objective), b.as_ref().map(|s| s.objective)
                ),
            }
        }
    }
}

#[test]
fn tableau_shapes_on_a_real_kernel_model() {
    let model = rs_model(10, 0xB0DED).expect("kernel has float values");
    let (rows, cols) = rs_lp::tableau_shape(&model);
    let (ref_rows, ref_cols) = rs_lp::reference::tableau_shape(&model);
    assert_eq!(rows, model.num_constraints());
    // every finite upper bound adds a row and a slack on the reference path
    let finite_uppers = (0..model.num_vars())
        .filter(|&i| model.bounds(rs_lp::VarId(i as u32)).1.is_finite())
        .count();
    assert!(finite_uppers > 0);
    assert_eq!(ref_rows, rows + finite_uppers);
    assert_eq!(ref_cols, cols + finite_uppers);
}

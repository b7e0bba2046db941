//! Parallel-vs-sequential agreement of the MILP engine on real
//! register-saturation models.
//!
//! The statically-partitioned branch-and-bound search promises that the
//! *entire tree* — not just the optimal objective — is independent of the
//! worker thread count: nodes are processed in deterministic rounds with
//! per-round frozen pseudocosts and incumbents, so node counts and the
//! committed-trace digest are byte-identical at every `threads` value.
//! These tests check that promise on the actual Section-3 intLP models
//! (not just synthetic knapsacks): random kernels are generated, their
//! saturation models built, and each is solved across the {1, 2, 4}
//! thread grid with pseudocost branching; objectives, node counts, and
//! trace digests must match exactly and every witness must be feasible.
//! Kernel trees of both intLPs, Section 3's and Section 4's reduction,
//! are pinned as constants.

mod common;

use common::budget_limited;
use proptest::prelude::*;
use rs_core::ilp::{ReduceIlp, RsIlp};
use rs_core::model::{RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};
use rs_lp::{MilpConfig, MilpStats};

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
    // Each case solves a full intLP twice; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn threads_dont_change_rs_objective(
        ops in 8usize..=12,
        seed in 0u64..200,
    ) {
        let Some(model) = rs_model(ops, 0x5EED_7000 + seed) else {
            return Ok(());
        };
        // A minority of random kernels fall off a big-M cliff; a short
        // budget keeps the suite fast, and budget-limited runs are skipped
        // below (how far a search gets within a wall-clock budget is
        // legitimately thread-count- and machine-dependent — only *proven*
        // optima carry the determinism guarantee). The engine always runs
        // root cutting planes, bound propagation, pseudocost branching and
        // dual steepest-edge pricing, so the tree must stay identical
        // across the thread grid with every tree-shaping feature active.
        let cfg = MilpConfig {
            time_limit: Some(std::time::Duration::from_secs(30)),
            ..MilpConfig::default()
        };
        let seq = rs_lp::solve(&model, &cfg);
        if budget_limited(&seq) {
            return Ok(());
        }
        for threads in [2usize, 4] {
            let par = rs_lp::solve(&model, &MilpConfig { threads, ..cfg.clone() });
            if budget_limited(&par) {
                continue;
            }
            match (&seq, par) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(
                        s.objective.round() as i64,
                        p.objective.round() as i64,
                        "ops={} seed={} threads={}", ops, seed, threads
                    );
                    // Same tree, not just same answer: the partitioned
                    // search commits identical rounds at every thread
                    // count.
                    prop_assert_eq!(
                        s.stats.nodes, p.stats.nodes,
                        "ops={} seed={} threads={} changed the node count",
                        ops, seed, threads
                    );
                    prop_assert_eq!(
                        s.stats.trace_digest, p.stats.trace_digest,
                        "ops={} seed={} threads={} changed the trace digest",
                        ops, seed, threads
                    );
                    prop_assert!(model.check_feasible(&s.values, 1e-5).is_ok());
                    prop_assert!(model.check_feasible(&p.values, 1e-5).is_ok());
                    // Separation is part of the deterministic contract:
                    // every worker count must cut the same planes in the
                    // same rounds and fathom the same nodes by propagation.
                    prop_assert_eq!(
                        (s.stats.cuts_added, s.stats.cut_rounds, s.stats.propagation_fathoms),
                        (p.stats.cuts_added, p.stats.cut_rounds, p.stats.propagation_fathoms),
                        "ops={} seed={} threads={} changed cut/propagation behavior",
                        ops, seed, threads
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.clone(), b),
                (a, b) => prop_assert!(
                    false,
                    "thread count {} changed the outcome class: seq {:?} vs par {:?}",
                    threads, a.as_ref().map(|s| s.objective), b.map(|s| s.objective)
                ),
            }
        }
    }
}

/// Pinned `(objective, nodes, trace_digest, cuts_added,
/// propagation_fathoms, work)` per instance: any change to the explored
/// tree — not only a thread-count dependence — fails the suite. A change
/// that means to reshape the tree updates these and says why.
type Tree = (f64, usize, u64, usize, usize, Work);

/// Pinned LP work of a solve: `(lp_solves, pivots, dse_pivots,
/// bound_flips, strong_branch_probes)`. A simplex change that moves one
/// pivot, or one probe, fails here even when the tree holds.
type Work = (usize, usize, usize, usize, usize);

fn work(st: &MilpStats) -> Work {
    (
        st.lp_solves,
        st.pivots,
        st.dse_pivots,
        st.bound_flips,
        st.strong_branch_probes,
    )
}

#[test]
fn bench_grid_trees_are_thread_invariant_with_cuts_and_dse() {
    // Three random-kernel intLPs (sizes 12, 14, 18 at seed
    // `0xBEEF + size + seed·7919`), plus four kernel intLPs covering
    // branching with strong-branching probes (lll12, lll1 int), root cut
    // rounds that are kept (whet_p8) and a propagation fathom (tomcatv
    // int), solved at every thread count. Besides the pinned tree, every
    // solve keeps two invariants: the bounded tableau holds the model's
    // rows plus at most the root cuts (no bound rows), and the root bounds
    // order as `pre-cut ≥ post-cut ≥ optimum` (every model maximizes).
    let mut cases: Vec<(String, rs_lp::Model, Tree)> = Vec::new();
    for (size, seed, tree) in [
        (
            12usize,
            1u64,
            (
                6.0,
                17,
                0x5ac2_8445_6af7_c949,
                0,
                0,
                (83, 1571, 238, 45, 19),
            ),
        ),
        (
            14,
            0,
            (
                8.0,
                69,
                0x6aef_6eac_aa77_76bf,
                9,
                3,
                (414, 6837, 1611, 218, 119),
            ),
        ),
        (
            18,
            4,
            (
                10.0,
                51,
                0x0c63_99ab_8ab0_979e,
                0,
                0,
                (288, 6812, 1358, 158, 83),
            ),
        ),
    ] {
        let cfg = RandomDagConfig::sized(size, 0xBEEF + size as u64 + seed * 7919);
        let ddg = random_ddg(&cfg, Target::superscalar());
        let model = RsIlp::new().build_model(&ddg, RegType::FLOAT).0;
        cases.push((format!("size {size}"), model, tree));
    }
    for (name, ty, tree) in [
        (
            "lll12",
            RegType::FLOAT,
            (
                6.0,
                9,
                0xc12a_8795_4124_e81f,
                0,
                0,
                (121, 1011, 430, 40, 26),
            ),
        ),
        (
            "lll1",
            RegType::INT,
            (4.0, 7, 0x3b28_676b_271a_27f2, 0, 0, (24, 448, 63, 13, 4)),
        ),
        (
            "whet_p8",
            RegType::FLOAT,
            (5.0, 1, 0x8820_1fb9_60ff_6465, 8, 0, (60, 322, 76, 21, 0)),
        ),
        (
            "tomcatv",
            RegType::INT,
            (6.0, 1, 0x8820_1fb9_60ff_6465, 0, 1, (12, 105, 10, 10, 0)),
        ),
    ] {
        let kernel = rs_kernels::corpus()
            .into_iter()
            .find(|k| k.name == name)
            .expect("corpus kernel");
        let ddg = (kernel.build)(Target::superscalar());
        let model = RsIlp::new().build_model(&ddg, ty).0;
        cases.push((format!("{name} {ty:?}"), model, tree));
    }
    // The explicit-bound-row reference engine agrees on the size-12
    // optimum; the larger grid instances keep their pinned objectives,
    // because the reference search on them runs for seconds.
    let reference = rs_lp::reference::solve_milp(&cases[0].1, &MilpConfig::default())
        .expect("reference solves the size-12 instance");
    assert!(reference.stats.proven_optimal, "reference hit the budget");
    assert!(
        (reference.objective - cases[0].2 .0).abs() < 1e-6,
        "reference objective {}",
        reference.objective
    );
    for (name, model, pinned) in cases {
        for threads in [1usize, 2, 4] {
            let sol = rs_lp::solve(&model, &MilpConfig::with_threads(threads))
                .expect("pinned instance solves");
            let st = sol.stats;
            assert!(st.proven_optimal, "{name} threads {threads}");
            let tree = (
                sol.objective,
                st.nodes,
                st.trace_digest,
                st.cuts_added,
                st.propagation_fathoms,
                work(&st),
            );
            assert_eq!(tree, pinned, "{name}: threads {threads} changed the tree");
            let rows = model.num_constraints();
            assert!(
                (rows..=rows + st.cuts_added).contains(&st.rows),
                "{name}: {} tableau rows for {rows} constraints + {} root cuts",
                st.rows,
                st.cuts_added
            );
            assert!(
                st.root_bound_pre_cuts >= st.root_bound_post_cuts - 1e-6
                    && st.root_bound_post_cuts >= sol.objective - 1e-6,
                "{name}: root bound {} before cuts, {} after, optimum {}",
                st.root_bound_pre_cuts,
                st.root_bound_post_cuts,
                sol.objective
            );
        }
    }
}

/// Pinned `(objective, nodes, trace_digest, rows, work)` of a Section-4
/// reduction intLP.
type ReduceTree = (f64, usize, u64, usize, Work);

#[test]
fn reduce_ilp_trees_are_pinned_and_thread_invariant() {
    // Two closed reduction trials on superscalar float kernels, at the
    // first horizon `ReduceIlp::reduce` tries. `rows` is pinned too: the
    // builder emits no independent-set row for the x_u columns it fixes
    // at zero, and a row that comes back fails here.
    for (name, r, pinned) in [
        (
            "fppp",
            4,
            (
                -36.0,
                69,
                0x10c6_f8a7_8b99_7147,
                365,
                (433, 7987, 1704, 1670, 121),
            ),
        ),
        (
            "lll11",
            4,
            (
                -17.0,
                373,
                0x5582_c26e_d6be_ffd1,
                259,
                (492, 18584, 1191, 4446, 109),
            ),
        ),
    ] {
        let kernel = rs_kernels::corpus()
            .into_iter()
            .find(|k| k.name == name)
            .expect("corpus kernel");
        let ddg = (kernel.build)(Target::superscalar());
        let horizon = (2 * ddg.critical_path() + 8).min(ddg.horizon());
        let model = ReduceIlp::new()
            .build_model(&ddg, RegType::FLOAT, r, horizon)
            .0;
        for threads in [1usize, 4] {
            let sol = rs_lp::solve(&model, &MilpConfig::with_threads(threads))
                .expect("pinned reduction solves");
            assert!(sol.stats.proven_optimal, "{name} R={r} threads {threads}");
            let tree: ReduceTree = (
                sol.objective,
                sol.stats.nodes,
                sol.stats.trace_digest,
                sol.stats.rows,
                work(&sol.stats),
            );
            assert_eq!(
                tree, pinned,
                "{name} R={r}: threads {threads} changed the tree"
            );
        }
    }
}

#[test]
fn exact_rs_threads_agree_on_kernels() {
    // The combinatorial exact solver's root split must match its
    // sequential saturation on the named kernel corpus.
    use rs_core::exact::ExactRs;
    for k in rs_kernels::corpus() {
        let ddg = (k.build)(Target::superscalar());
        for t in ddg.reg_types() {
            if ddg.values(t).len() < 2 {
                continue;
            }
            let seq = ExactRs::new().saturation(&ddg, t);
            let par = ExactRs::with_threads(4).saturation(&ddg, t);
            assert_eq!(
                seq.saturation, par.saturation,
                "kernel {} type {:?}",
                k.name, t
            );
            assert_eq!(seq.proven_optimal, par.proven_optimal);
        }
    }
}

//! Cross-solver agreement (the backbone of the Section-5 experiments):
//! heuristic ≤ exact everywhere; the Section-3 intLP and the combinatorial
//! enumeration agree wherever both are exact.

use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};

#[test]
fn heuristic_never_exceeds_exact_on_corpus() {
    for k in rs_kernels::corpus() {
        let ddg = (k.build)(Target::superscalar());
        for t in ddg.reg_types() {
            let h = GreedyK::new().saturation(&ddg, t).saturation;
            let e = ExactRs::new().saturation(&ddg, t);
            assert!(
                h <= e.saturation,
                "{}/{:?}: RS* = {h} > RS = {}",
                k.name,
                t,
                e.saturation
            );
            if e.proven_optimal {
                assert!(
                    e.saturation - h <= 1,
                    "{}/{:?}: error {} > 1 register (RS*={h}, RS={})",
                    k.name,
                    t,
                    e.saturation - h,
                    e.saturation
                );
            }
        }
    }
}

#[test]
fn heuristic_never_exceeds_exact_on_random_dags() {
    for seed in 0..40u64 {
        let ddg = random_ddg(
            &RandomDagConfig::sized(14, 0xF00 + seed),
            Target::superscalar(),
        );
        let h = GreedyK::new().saturation(&ddg, RegType::FLOAT).saturation;
        let e = ExactRs::new().saturation(&ddg, RegType::FLOAT);
        assert!(h <= e.saturation, "seed {seed}");
    }
}

#[test]
fn intlp_matches_enumeration_on_small_dags() {
    let mut checked = 0;
    for seed in 0..12u64 {
        let ddg = random_ddg(
            &RandomDagConfig::sized(7, 0xCAFE + seed),
            Target::superscalar(),
        );
        if ddg.values(RegType::FLOAT).len() < 2 || ddg.values(RegType::FLOAT).len() > 5 {
            continue;
        }
        let e = ExactRs::new().saturation(&ddg, RegType::FLOAT);
        let ilp = RsIlp::new().saturation(&ddg, RegType::FLOAT).unwrap();
        assert!(e.proven_optimal);
        assert!(
            ilp.proven_optimal,
            "seed {seed}: intLP did not prove optimality"
        );
        assert_eq!(
            e.saturation, ilp.saturation,
            "seed {seed}: enumeration {} vs intLP {}",
            e.saturation, ilp.saturation
        );
        // and the intLP's witness schedule achieves the saturation
        let rn = rs_core::lifetime::register_need(&ddg, RegType::FLOAT, &ilp.schedule);
        assert_eq!(rn, ilp.saturation, "seed {seed}: witness mismatch");
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} DAGs were intLP-checked");
}

#[test]
fn intlp_full_iff_matches_fast_encoding() {
    let mut checked = 0;
    for seed in 0..6u64 {
        let ddg = random_ddg(
            &RandomDagConfig::sized(6, 0xD1CE + seed),
            Target::superscalar(),
        );
        if ddg.values(RegType::FLOAT).len() < 2 || ddg.values(RegType::FLOAT).len() > 4 {
            continue;
        }
        let fast = RsIlp::new().saturation(&ddg, RegType::FLOAT).unwrap();
        let full = RsIlp {
            full_iff: true,
            ..RsIlp::new()
        }
        .saturation(&ddg, RegType::FLOAT)
        .unwrap();
        assert!(
            fast.proven_optimal && full.proven_optimal,
            "seed {seed}: an encoding did not prove optimality"
        );
        assert_eq!(fast.saturation, full.saturation, "seed {seed}");
        checked += 1;
    }
    assert!(checked >= 2, "only {checked} DAGs were compared");
}

#[test]
fn saturation_is_monotone_under_serialization() {
    // adding arcs can only shrink (or preserve) the saturation
    for seed in 0..10u64 {
        let mut ddg = random_ddg(
            &RandomDagConfig::sized(12, 0xAAA + seed),
            Target::superscalar(),
        );
        let before = ExactRs::new().saturation(&ddg, RegType::FLOAT).saturation;
        // serialize two independent float values if any
        let vals = ddg.values(RegType::FLOAT);
        let lp = rs_graph::paths::LongestPaths::new(ddg.graph());
        let pair = vals
            .iter()
            .flat_map(|&u| vals.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u != v && !lp.reaches(u, v) && !lp.reaches(v, u));
        if let Some((u, v)) = pair {
            // order u's readers before v
            let readers = ddg.consumers(u, RegType::FLOAT);
            let mut ok = true;
            for r in &readers {
                if lp.reaches(v, *r) {
                    ok = false;
                }
            }
            if !ok {
                continue;
            }
            for r in readers {
                if r != v {
                    ddg.add_serial(r, v, 0);
                }
            }
            if !ddg.is_acyclic() {
                continue;
            }
            let after = ExactRs::new().saturation(&ddg, RegType::FLOAT).saturation;
            assert!(after <= before, "seed {seed}: {after} > {before}");
        }
    }
}

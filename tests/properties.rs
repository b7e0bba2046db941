//! Property-based integration tests over randomly generated DDGs: the
//! theory-level invariants the whole framework rests on.

use proptest::prelude::*;
use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::killing::{killed_graph, FlatKilling, KilledScratch, KillingFunction};
use rs_core::lifetime::{asap_schedule, is_valid_schedule, register_need};
use rs_core::model::{RegType, Target};
use rs_core::pkill::potential_killers;
use rs_core::reduce::Reducer;
use rs_graph::paths::LongestPaths;
use rs_kernels::random::{random_ddg, RandomDagConfig};
use std::collections::BTreeMap;

fn arb_config() -> impl Strategy<Value = RandomDagConfig> {
    (
        6usize..=18,
        2usize..=6,
        0.1f64..0.5,
        0.4f64..0.9,
        any::<u64>(),
    )
        .prop_map(
            |(ops, layers, edge_prob, value_ratio, seed)| RandomDagConfig {
                ops,
                layers,
                edge_prob,
                value_ratio,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RN_σ(asap) ≤ RS* ≤ RS ≤ |V_R|` — the fundamental sandwich.
    #[test]
    fn saturation_sandwich(cfg in arb_config()) {
        let ddg = random_ddg(&cfg, Target::superscalar());
        let t = RegType::FLOAT;
        let values = ddg.values(t).len();
        let h = GreedyK::new().saturation(&ddg, t).saturation;
        let e = ExactRs::new().saturation(&ddg, t);
        prop_assert!(h <= e.saturation, "RS* {h} > RS {}", e.saturation);
        prop_assert!(e.saturation <= values);
        let asap = asap_schedule(&ddg);
        prop_assert!(is_valid_schedule(&ddg, &asap));
        let rn = register_need(&ddg, t, &asap);
        if e.proven_optimal {
            prop_assert!(rn <= e.saturation, "RN(asap) {rn} > RS {}", e.saturation);
        }
    }

    /// The heuristic's witness is achievable: its saturating values are
    /// pairwise simultaneously alive under SOME schedule — checked through
    /// the killing-function invariants.
    #[test]
    fn heuristic_killing_is_valid(cfg in arb_config()) {
        let ddg = random_ddg(&cfg, Target::superscalar());
        let t = RegType::FLOAT;
        if ddg.values(t).is_empty() {
            return Ok(());
        }
        let analysis = GreedyK::new().saturation(&ddg, t);
        let lp = rs_graph::paths::LongestPaths::new(ddg.graph());
        let pk = rs_core::pkill::potential_killers(&ddg, t, &lp);
        prop_assert!(analysis.killing.respects(&pk));
        prop_assert_eq!(analysis.saturating_values.len(), analysis.saturation);
    }

    /// Reduction honours its budget (verified exactly) and keeps the graph
    /// acyclic with all original edges intact. Uses the exact-verified
    /// reducer: the plain heuristic may under-serialize when `RS*`
    /// under-estimates (that gap is exactly what experiment T2 measures).
    #[test]
    fn reduction_invariants(cfg in arb_config(), drop in 1usize..=2) {
        let mut ddg = random_ddg(&cfg, Target::superscalar());
        let t = RegType::FLOAT;
        let rs0 = GreedyK::new().saturation(&ddg, t).saturation;
        if rs0 <= drop {
            return Ok(());
        }
        let budget = rs0 - drop;
        let originals: Vec<_> = ddg.graph().edge_ids().collect();
        let out = Reducer { verify_exact: true, ..Reducer::new() }.reduce(&mut ddg, t, budget);
        prop_assert!(ddg.is_acyclic());
        for e in originals {
            prop_assert!(ddg.graph().edge_alive(e));
        }
        if out.fits() {
            let exact = ExactRs::new().saturation(&ddg, t);
            if exact.proven_optimal {
                prop_assert!(exact.saturation <= budget,
                    "claimed fit at {budget} but exact RS = {}", exact.saturation);
            }
        }
    }

    /// Scheduling after reduction allocates within the budget, zero spills.
    #[test]
    fn end_to_end_allocation(cfg in arb_config()) {
        let mut ddg = random_ddg(&cfg, Target::superscalar());
        let t = RegType::FLOAT;
        let rs0 = GreedyK::new().saturation(&ddg, t).saturation;
        if rs0 < 3 {
            return Ok(());
        }
        let budget = rs0 - 1;
        let out = Reducer { verify_exact: true, ..Reducer::new() }.reduce(&mut ddg, t, budget);
        if !out.fits() {
            return Ok(());
        }
        let sched = rs_sched::ListScheduler::new(rs_sched::Resources::four_issue()).schedule(&ddg);
        prop_assert!(is_valid_schedule(&ddg, &sched.sigma));
        let alloc = rs_sched::RegisterAllocator::new().allocate(&ddg, t, &sched.sigma, budget);
        prop_assert!(alloc.success(), "spilled {:?} at budget {budget}", alloc.spilled);
    }

    /// VLIW delay models preserve every invariant.
    #[test]
    fn vliw_invariants(cfg in arb_config()) {
        let ddg = random_ddg(&cfg, Target::vliw());
        let t = RegType::FLOAT;
        let h = GreedyK::new().saturation(&ddg, t).saturation;
        let e = ExactRs::new().saturation(&ddg, t);
        prop_assert!(h <= e.saturation);
        let asap = asap_schedule(&ddg);
        prop_assert!(is_valid_schedule(&ddg, &asap));
    }
}

/// splitmix64: the seeded stream the killing-function draws come from.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The engine's flat killed graph (`KilledScratch`) agrees with the
/// one-shot `killed_graph` on random DDGs of both targets, under killing
/// functions drawn at random from pkill, cyclic ones included: the same
/// validity, and on valid ones the same longest path for every pair. One
/// scratch serves DAGs of every size, so stale state fails too.
#[test]
fn flat_killed_graph_matches_reference() {
    let mut scratch = KilledScratch::new();
    let mut flat = FlatKilling::default();
    let (mut valid, mut cyclic) = (0, 0);
    let mut state = 0x5eed;
    for case in 0..64u64 {
        let cfg = RandomDagConfig::sized(4 + (case as usize * 7) % 26, case);
        for target in [Target::superscalar(), Target::vliw()] {
            let ddg = random_ddg(&cfg, target);
            let lp = LongestPaths::new(ddg.graph());
            for t in ddg.reg_types() {
                let pk = potential_killers(&ddg, t, &lp);
                for _ in 0..4 {
                    flat.reset(ddg.num_ops());
                    let mut killer = BTreeMap::new();
                    for (u, ks) in pk.iter() {
                        let k = ks[(splitmix(&mut state) % ks.len() as u64) as usize];
                        flat.set(u, k);
                        killer.insert(u, k);
                    }
                    let k = KillingFunction {
                        reg_type: t,
                        killer,
                    };
                    let reference = killed_graph(&ddg, &pk, &k);
                    assert_eq!(
                        scratch.build(&ddg, &pk, &flat),
                        reference.is_some(),
                        "case {case} type {t:?}: validity of {k:?}"
                    );
                    let Some(reference) = reference else {
                        cyclic += 1;
                        continue;
                    };
                    valid += 1;
                    assert_eq!(scratch.lp.len(), ddg.num_ops());
                    for u in ddg.graph().node_ids() {
                        for v in ddg.graph().node_ids() {
                            assert_eq!(
                                scratch.lp.lp(u, v),
                                reference.lp.lp(u, v),
                                "case {case} type {t:?}: lp({u:?}, {v:?})"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        valid > 100 && cyclic > 100,
        "draws covered {valid} valid and {cyclic} cyclic killing functions"
    );
}

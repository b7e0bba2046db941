//! Property-based integration tests over randomly generated DDGs: the
//! theory-level invariants the whole framework rests on.

use proptest::prelude::*;
use rs_core::engine::RsEngine;
use rs_core::exact::ExactRs;
use rs_core::heuristic::{GreedyK, RsAnalysis};
use rs_core::killing::{FlatKilling, KilledScratch, KillingFunction};
use rs_core::lifetime::{asap_schedule, is_valid_schedule, register_need};
use rs_core::model::{Ddg, RegType, Target};
use rs_core::pkill::{potential_killers, PKill};
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
        let out = Reducer { verify_exact: true }.reduce(&mut ddg, t, budget);
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
        let out = Reducer { verify_exact: true }.reduce(&mut ddg, t, budget);
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

/// The arcs of `G_{→k}` as `(src, dst, latency)`: the DDG's live arcs,
/// then `v → k(u)` of latency `δr(v) − δr(k(u))` for every other potential
/// killer `v` of each value `u`.
fn killed_arcs(ddg: &Ddg, pk: &PKill, k: &KillingFunction) -> Vec<(usize, usize, i64)> {
    let g = ddg.graph();
    let mut arcs: Vec<_> = g
        .edge_ids()
        .map(|e| (g.src(e).index(), g.dst(e).index(), g.latency(e)))
        .collect();
    for (u, killers) in pk.iter() {
        let ku = k.of(u);
        for &v in killers.iter().filter(|&&v| v != ku) {
            arcs.push((v.index(), ku.index(), ddg.delta_r(v) - ddg.delta_r(ku)));
        }
    }
    arcs
}

/// All-pairs longest paths of `G_{→k}` by Floyd–Warshall over
/// [`killed_arcs`], in `LongestPaths::lp`'s conventions (`Some(0)` on the
/// diagonal, `None` without a path), or `None` when the arcs close a cycle
/// (some node reaches itself over at least one arc).
fn killed_lp_oracle(ddg: &Ddg, pk: &PKill, k: &KillingFunction) -> Option<Vec<Vec<Option<i64>>>> {
    let n = ddg.num_ops();
    let arcs = killed_arcs(ddg, pk, k);
    let mut reach = vec![vec![false; n]; n];
    for &(s, d, _) in &arcs {
        reach[s][d] = true;
    }
    for m in 0..n {
        let via = reach[m].clone();
        for row in reach.iter_mut().filter(|row| row[m]) {
            for (cell, &mj) in row.iter_mut().zip(&via) {
                *cell |= mj;
            }
        }
    }
    if (0..n).any(|i| reach[i][i]) {
        return None;
    }
    // max-plus closure: exact on an acyclic arc set
    let mut lp = vec![vec![None; n]; n];
    for (i, row) in lp.iter_mut().enumerate() {
        row[i] = Some(0);
    }
    for &(s, d, lat) in &arcs {
        lp[s][d] = lp[s][d].max(Some(lat));
    }
    for m in 0..n {
        let via = lp[m].clone();
        for row in lp.iter_mut() {
            let Some(im) = row[m] else { continue };
            for (cell, mj) in row.iter_mut().zip(&via) {
                if let Some(mj) = mj {
                    *cell = (*cell).max(Some(im + mj));
                }
            }
        }
    }
    Some(lp)
}

/// The engine's flat killed graph (`KilledScratch`) agrees with a
/// Floyd–Warshall oracle on random DDGs of both targets, under killing
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
                    let reference = killed_lp_oracle(&ddg, &pk, &k);
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
                                reference[u.index()][v.index()],
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

/// The earliest schedule that keeps Greedy-k's witness values alive
/// together, or `None` on a positive cycle. It solves the difference
/// constraints of `G_{→k}` ([`killed_arcs`]) plus, for every pair `a, b`
/// of the witness with `a ≠ k(b)`, `a → k(b)` of latency
/// `δw(a) − δr(k(b)) + 1`: `a` is defined before `b` is killed. Longest
/// paths relax from 0 to a fixpoint; a change in round `n + 1` is a
/// positive cycle.
fn witness_schedule(ddg: &Ddg, pk: &PKill, a: &RsAnalysis) -> Option<Vec<i64>> {
    let mut arcs = killed_arcs(ddg, pk, &a.killing);
    for &x in &a.saturating_values {
        for &y in &a.saturating_values {
            let ky = a.killing.of(y);
            if x != ky {
                arcs.push((x.index(), ky.index(), ddg.delta_w(x) - ddg.delta_r(ky) + 1));
            }
        }
    }
    let mut sigma = vec![0i64; ddg.num_ops()];
    for _round in 0..=ddg.num_ops() {
        let mut changed = false;
        for &(s, d, lat) in &arcs {
            if sigma[s] + lat > sigma[d] {
                sigma[d] = sigma[s] + lat;
                changed = true;
            }
        }
        if !changed {
            return Some(sigma);
        }
    }
    None
}

/// Every RS* Greedy-k reports is reached by a schedule: the one
/// [`witness_schedule`] builds from its own witness antichain and killing
/// function is valid and needs at least RS* registers. That checks the
/// answer against the definition (a maximum over schedules), not against
/// another killing-function computation. Runs every kernel and random DAGs
/// of 4–48 operations, both targets, through one warm engine.
#[test]
fn witness_schedules_reach_saturation() {
    let mut engine = RsEngine::new();
    let mut checked = 0;
    for target in [Target::superscalar(), Target::vliw()] {
        let kernels = rs_kernels::corpus()
            .into_iter()
            .map(|k| (k.build)(target.clone()));
        let random = (0..12u64).flat_map(|seed| {
            let target = target.clone();
            (4..=48).map(move |ops| random_ddg(&RandomDagConfig::sized(ops, seed), target.clone()))
        });
        for ddg in kernels.chain(random) {
            let lp = LongestPaths::new(ddg.graph());
            for t in ddg.reg_types() {
                let a = engine.analyze(&ddg, t);
                let pk = potential_killers(&ddg, t, &lp);
                assert!(a.killing.respects(&pk));
                assert_eq!(a.saturating_values.len(), a.saturation);
                let sigma = witness_schedule(&ddg, &pk, &a)
                    .unwrap_or_else(|| panic!("{t:?}: positive cycle for {a:?}"));
                assert!(is_valid_schedule(&ddg, &sigma), "{t:?}: {sigma:?}");
                let rn = register_need(&ddg, t, &sigma);
                assert!(rn >= a.saturation, "{t:?}: RN {rn} < RS* {}", a.saturation);
                checked += 1;
            }
        }
    }
    assert!(checked > 2_000, "checked {checked} analyses");
}

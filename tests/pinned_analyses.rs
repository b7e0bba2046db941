//! Pinned Greedy-k analyses of the paper's kernel corpus and of random
//! DAGs.
//!
//! Greedy-k has one implementation, so these pins are what catches a
//! change that moves its answers. Every kernel on both targets and every
//! register type pins its RS*, an FNV-1a digest of the witness antichain
//! and killing map, and the outcome of reducing it to 6 registers. 96
//! random DAGs of 4–48 operations on both targets pin the same, one FNV-1a
//! row per size and target, reduced to a budget two below the largest RS*
//! so that they do reduce. The reduction is the dispatcher's: one
//! [`RsEngine::reduce`] per register type, in `reg_types()` order, on one
//! DDG that each type's arcs accumulate in. One warm engine analyses
//! everything, the random DAGs in mixed-size order, so stale working
//! storage fails too. A change that means to alter an analysis updates the
//! pins and says why.

use rs_core::engine::RsEngine;
use rs_core::heuristic::RsAnalysis;
use rs_core::model::{Ddg, RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};
use std::collections::BTreeMap;

/// `(kernel, target, register type, RS*, digest of witness + killing map,
/// (rs_before, rs_after, arcs_added, cp_after, fits))` at 6 registers.
type Pin = (&'static str, &'static str, u8, usize, u64, Reduction);
type Reduction = (usize, usize, usize, i64, bool);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("lll1", "ss", 0, 4, 0x56b0d795846242f0, (4, 4, 0, 21, true)),
    ("lll1", "ss", 1, 6, 0x7f15978f9ac4623e, (6, 6, 0, 21, true)),
    ("lll1", "vliw", 0, 4, 0x56b0d795846242f0, (4, 4, 0, 21, true)),
    ("lll1", "vliw", 1, 6, 0x7f15978f9ac4623e, (6, 6, 0, 21, true)),
    ("lll2", "ss", 0, 3, 0xc75b2c965ac9fb6d, (3, 3, 0, 19, true)),
    ("lll2", "ss", 1, 7, 0x243217119f3acd15, (7, 6, 1, 19, true)),
    ("lll2", "vliw", 0, 3, 0xc75b2c965ac9fb6d, (3, 3, 0, 19, true)),
    ("lll2", "vliw", 1, 7, 0x243217119f3acd15, (7, 6, 1, 19, true)),
    ("lll3", "ss", 1, 9, 0xd058497bf17dc36e, (9, 6, 5, 21, true)),
    ("lll3", "vliw", 1, 9, 0xd058497bf17dc36e, (9, 6, 5, 18, true)),
    ("lll5", "ss", 1, 7, 0x0069bd7e1c3a779f, (7, 6, 1, 24, true)),
    ("lll5", "vliw", 1, 7, 0x0069bd7e1c3a779f, (7, 6, 1, 24, true)),
    ("lll7", "ss", 1, 11, 0xc07e5af9c54e6992, (11, 6, 10, 37, true)),
    ("lll7", "vliw", 1, 11, 0xc07e5af9c54e6992, (11, 6, 11, 37, true)),
    ("lll9", "ss", 1, 10, 0x3b2858b922e22004, (10, 6, 8, 21, true)),
    ("lll9", "vliw", 1, 10, 0x3b2858b922e22004, (10, 6, 8, 21, true)),
    ("lll11", "ss", 1, 5, 0xd98d225cf1d1c31d, (5, 5, 0, 17, true)),
    ("lll11", "vliw", 1, 5, 0xd98d225cf1d1c31d, (5, 5, 0, 17, true)),
    ("lll12", "ss", 1, 6, 0x37470bef374d9c38, (6, 6, 0, 8, true)),
    ("lll12", "vliw", 1, 6, 0x37470bef374d9c38, (6, 6, 0, 8, true)),
    ("daxpy", "ss", 0, 8, 0xbaf99610ef3fa047, (8, 6, 6, 26, true)),
    ("daxpy", "ss", 1, 9, 0x1f9b410b29924be3, (5, 5, 0, 26, true)),
    ("daxpy", "vliw", 0, 8, 0xbaf99610ef3fa047, (8, 6, 6, 26, true)),
    ("daxpy", "vliw", 1, 9, 0x1f9b410b29924be3, (5, 5, 0, 26, true)),
    ("ddot", "ss", 1, 9, 0xbae7c9b8138c1e8c, (9, 6, 5, 21, true)),
    ("ddot", "vliw", 1, 9, 0xbae7c9b8138c1e8c, (9, 6, 5, 18, true)),
    ("dscal", "ss", 1, 5, 0xb2eedbc2eb74a553, (5, 5, 0, 8, true)),
    ("dscal", "vliw", 1, 5, 0xb2eedbc2eb74a553, (5, 5, 0, 8, true)),
    ("whet_p3", "ss", 1, 7, 0x12a7385795376897, (7, 6, 1, 54, true)),
    ("whet_p3", "vliw", 1, 7, 0x12a7385795376897, (7, 6, 1, 54, true)),
    ("whet_p8", "ss", 1, 5, 0xdb966e503a5f2a54, (5, 5, 0, 37, true)),
    ("whet_p8", "vliw", 1, 5, 0xdb966e503a5f2a54, (5, 5, 0, 37, true)),
    ("tomcatv", "ss", 0, 6, 0xc2558efb73a052e2, (6, 6, 0, 22, true)),
    ("tomcatv", "ss", 1, 7, 0xf7279a8aa9f9c949, (7, 6, 1, 22, true)),
    ("tomcatv", "vliw", 0, 6, 0xc2558efb73a052e2, (6, 6, 0, 22, true)),
    ("tomcatv", "vliw", 1, 7, 0xf7279a8aa9f9c949, (7, 6, 1, 22, true)),
    ("swim", "ss", 1, 10, 0xdbfe7241a872eeff, (10, 6, 13, 20, true)),
    ("swim", "vliw", 1, 10, 0xdbfe7241a872eeff, (10, 7, 10, 19, false)),
    ("fppp", "ss", 1, 6, 0xd547836527e489eb, (6, 6, 0, 36, true)),
    ("fppp", "vliw", 1, 6, 0xd547836527e489eb, (6, 6, 0, 36, true)),
];

/// `(ops, target, analyses, Σ RS*, Σ arcs added, digest)`: one row per
/// random-DAG size and target.
type RandomPin = (usize, &'static str, usize, usize, usize, u64);

#[rustfmt::skip]
const RANDOM_PINS: &[RandomPin] = &[
    (4, "ss", 11, 23, 2, 0x8b64e68fa0e770fc),
    (4, "vliw", 11, 23, 2, 0xebac8df802a28881),
    (8, "ss", 15, 53, 22, 0x0b823e3696dcf3bf),
    (8, "vliw", 15, 53, 21, 0xa855f02088aaaebe),
    (12, "ss", 15, 74, 37, 0x91bb50356367b951),
    (12, "vliw", 15, 74, 38, 0xe5095ee8afca1352),
    (16, "ss", 16, 102, 26, 0x61553229f04b2192),
    (16, "vliw", 16, 102, 24, 0x40cf1c6918dca971),
    (20, "ss", 16, 124, 32, 0xa375cba6b751e1db),
    (20, "vliw", 16, 124, 31, 0xa6850896ee9f2ee9),
    (24, "ss", 16, 149, 39, 0xdcef56f6a63c32a7),
    (24, "vliw", 16, 149, 33, 0x9b5aa09b4d059f1b),
    (28, "ss", 16, 176, 31, 0x655ac04f4a0032bd),
    (28, "vliw", 16, 176, 28, 0xa0607ce0ffe3e368),
    (32, "ss", 16, 194, 33, 0xe7734f1beb381233),
    (32, "vliw", 16, 194, 31, 0x5195543dae708d9b),
    (36, "ss", 16, 225, 60, 0x3363be3e3d498dea),
    (36, "vliw", 16, 225, 45, 0x70c51844cfd2086b),
    (40, "ss", 16, 260, 37, 0x0afa22758d92f531),
    (40, "vliw", 16, 260, 34, 0x1ffc94c626e4467e),
    (44, "ss", 16, 279, 38, 0xee0fa4bd785c582b),
    (44, "vliw", 16, 279, 36, 0x1ab435a6d7a029f5),
    (48, "ss", 16, 303, 44, 0x552333ccbb63c9d5),
    (48, "vliw", 16, 303, 39, 0x588b6f3f6e323e38),
];

/// Random-DAG sizes; seeds `0..SEEDS` of each, on both targets.
const SIZES: [usize; 12] = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48];
const SEEDS: usize = 8;

/// FNV-1a over little-endian `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The witness ids, then the `(value, killer)` pairs.
fn analysis_words(a: &RsAnalysis) -> impl Iterator<Item = u32> + '_ {
    a.saturating_values
        .iter()
        .map(|v| v.0)
        .chain(a.killing.killer.iter().flat_map(|(u, k)| [u.0, k.0]))
}

fn digest(a: &RsAnalysis) -> u64 {
    let mut h = Fnv::new();
    h.words(analysis_words(a));
    h.0
}

/// Reduces every register type of `ddg` to `budget` in place, as the
/// dispatcher's `reduce_type` does, and returns each type's outcome.
fn reduce_all(engine: &mut RsEngine, ddg: &mut Ddg, budget: usize) -> Vec<(RegType, Reduction)> {
    let mut rows = Vec::new();
    for t in ddg.reg_types() {
        let o = engine.reduce(ddg, t, budget);
        let arcs = o.added_arcs().len();
        rows.push((
            t,
            (
                o.rs_before(),
                o.rs_after(),
                arcs,
                ddg.critical_path(),
                o.fits(),
            ),
        ));
    }
    rows
}

fn analyses() -> Vec<Pin> {
    let mut engine = RsEngine::new();
    let mut rows = Vec::new();
    for kernel in rs_kernels::corpus() {
        for (target_name, target) in [("ss", Target::superscalar()), ("vliw", Target::vliw())] {
            let ddg = (kernel.build)(target);
            let reductions = reduce_all(&mut engine, &mut ddg.clone(), 6);
            for (t, reduction) in reductions {
                let a = engine.analyze(&ddg, t);
                rows.push((
                    kernel.name,
                    target_name,
                    t.0,
                    a.saturation,
                    digest(&a),
                    reduction,
                ));
            }
        }
    }
    rows
}

fn random_analyses() -> Vec<RandomPin> {
    let mut engine = RsEngine::new();
    let mut rows: BTreeMap<(usize, &str), (usize, usize, usize, Fnv)> = BTreeMap::new();
    for seed in 0..SEEDS {
        // 5 is coprime to 12: every seed visits every size, in a new order
        for i in 0..SIZES.len() {
            let ops = SIZES[(i * 5 + seed) % SIZES.len()];
            for (target_name, target) in [("ss", Target::superscalar()), ("vliw", Target::vliw())] {
                let ddg = random_ddg(&RandomDagConfig::sized(ops, seed as u64), target);
                let (count, rs_sum, arcs_sum, h) =
                    rows.entry((ops, target_name))
                        .or_insert((0, 0, 0, Fnv::new()));
                let mut max_rs = 0;
                for t in ddg.reg_types() {
                    let a = engine.analyze(&ddg, t);
                    *count += 1;
                    *rs_sum += a.saturation;
                    max_rs = max_rs.max(a.saturation);
                    h.words([u32::from(t.0), a.saturation as u32]);
                    h.words(analysis_words(&a));
                }
                let budget = max_rs.saturating_sub(2).max(1);
                h.words([budget as u32]);
                for (t, (rs_before, rs_after, arcs, cp_after, fits)) in
                    reduce_all(&mut engine, &mut ddg.clone(), budget)
                {
                    *arcs_sum += arcs;
                    h.words([
                        u32::from(t.0),
                        rs_before as u32,
                        rs_after as u32,
                        arcs as u32,
                        cp_after as u32,
                        u32::from(fits),
                    ]);
                }
            }
        }
    }
    rows.into_iter()
        .map(|((ops, tg), (n, rs, arcs, h))| (ops, tg, n, rs, arcs, h.0))
        .collect()
}

#[test]
fn random_dag_analyses_match_pins() {
    let rows = random_analyses();
    let table: String = rows
        .iter()
        .map(|(ops, tg, n, rs, arcs, d)| {
            format!("    ({ops}, {tg:?}, {n}, {rs}, {arcs}, {d:#018x}),\n")
        })
        .collect();
    assert_eq!(rows, RANDOM_PINS, "analysis moved; actual table:\n{table}");
}

#[test]
fn kernel_analyses_match_pins() {
    let rows = analyses();
    let table: String = rows
        .iter()
        .map(|(k, tg, t, rs, d, red)| {
            format!("    ({k:?}, {tg:?}, {t}, {rs}, {d:#018x}, {red:?}),\n")
        })
        .collect();
    assert_eq!(
        rows.len(),
        PINS.len(),
        "kernel/target/type rows changed; actual table:\n{table}"
    );
    for (row, pin) in rows.iter().zip(PINS) {
        assert_eq!(row, pin, "analysis moved; actual table:\n{table}");
    }
}

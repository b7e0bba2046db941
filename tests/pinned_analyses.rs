//! Pinned Greedy-k analyses of the paper's kernel corpus.
//!
//! `tests/engine_equiv.rs` checks the batch engine against the one-shot
//! reference, but both share the killing-function machinery and the
//! longest-path table, so a change there can move them together. Every
//! kernel on both targets and every register type pins its RS*, an FNV-1a
//! digest of the witness antichain and killing map, and
//! `Pipeline::uniform(6)`'s reduction outcome. A change that means to alter
//! an analysis updates them and says why.

use rs_core::engine::RsEngine;
use rs_core::heuristic::RsAnalysis;
use rs_core::model::Target;
use rs_core::pipeline::Pipeline;

/// `(kernel, target, register type, RS*, digest of witness + killing map,
/// (rs_before, rs_after, arcs_added, cp_after, fits))` under
/// `Pipeline::uniform(6)`.
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

/// FNV-1a over the witness ids, then the `(value, killer)` pairs.
fn digest(a: &RsAnalysis) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = a
        .saturating_values
        .iter()
        .map(|v| v.0)
        .chain(a.killing.killer.iter().flat_map(|(u, k)| [u.0, k.0]));
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn analyses() -> Vec<Pin> {
    let mut engine = RsEngine::new();
    let mut rows = Vec::new();
    for kernel in rs_kernels::corpus() {
        for (target_name, target) in [("ss", Target::superscalar()), ("vliw", Target::vliw())] {
            let ddg = (kernel.build)(target);
            let mut reduced = ddg.clone();
            let report = engine.run_pipeline(&Pipeline::uniform(6), &mut reduced);
            for t in ddg.reg_types() {
                let a = engine.analyze(&ddg, t);
                let r = report
                    .types
                    .iter()
                    .find(|r| r.reg_type == t.0)
                    .expect("the pipeline reports every register type");
                rows.push((
                    kernel.name,
                    target_name,
                    t.0,
                    a.saturation,
                    digest(&a),
                    (r.rs_before, r.rs_after, r.arcs_added, r.cp_after, r.fits),
                ));
            }
        }
    }
    rows
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

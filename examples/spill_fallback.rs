//! When serialization cannot reduce the saturation (the paper's terminal
//! "spilling is unavoidable" case), the DDG-level spill pass — the paper's
//! stated future work — splits lifetimes through memory *before*
//! scheduling, breaking the classic schedule-then-spill iteration.
//!
//! ```text
//! cargo run --example spill_fallback
//! ```

use rs_core::exact::ExactRs;
use rs_core::model::{DdgBuilder, OpClass, RegType, Target};
use rs_core::reduce::Reducer;
use rs_core::spill::spill_to_fit;

fn main() {
    // One long-lived value L spanning three short chains.
    let mut b = DdgBuilder::new(Target::superscalar());
    let l = b.op("L", OpClass::Load, Some(RegType::FLOAT));
    let f = b.op("use L", OpClass::Store, None);
    b.flow(l, f, 4, RegType::FLOAT);
    for i in 0..3 {
        let v = b.op(format!("v{i}"), OpClass::FloatAlu, Some(RegType::FLOAT));
        let s = b.op(format!("s{i}"), OpClass::Store, None);
        b.flow(v, s, 3, RegType::FLOAT);
        b.serial(l, v, 1);
        b.serial(s, f, 1);
    }
    let ddg = b.finish();

    let rs0 = ExactRs::new().saturation(&ddg, RegType::FLOAT).saturation;
    println!("initial DDG: {} ops, exact RS = {rs0}", ddg.num_ops());
    println!("L overlaps every short chain, so RS can be serialized down to 2 — never 1.\n");

    // Serialization alone at R = 1: must fail.
    let mut plain = ddg.clone();
    let out = Reducer { verify_exact: true }.reduce(&mut plain, RegType::FLOAT, 1);
    println!(
        "value-serialization reduction to R=1: fits = {}",
        out.fits()
    );

    // The spill pass splits L's lifetime through memory.
    println!("\nDDG-level spill pass at R=1:");
    match spill_to_fit(&ddg, RegType::FLOAT, 1) {
        Some(res) => {
            println!("  spilled values: {:?}", res.spilled_values);
            // every spilled value gets one store and one reload
            let spills = res.spilled_values.len();
            println!(
                "  +{spills} store(s), +{spills} reload(s), {} serialization arcs, final exact RS = {}",
                res.reduction_arcs, res.rs_after
            );
            println!(
                "  transformed DDG has {} ops (was {})",
                res.ddg.num_ops(),
                ddg.num_ops()
            );
            // show the inserted ops
            for n in res.ddg.graph().node_ids() {
                let name = &res.ddg.graph().node(n).name;
                if name.starts_with("spill ") || name.starts_with("reload ") {
                    println!("    inserted: {name}");
                }
            }
        }
        None => println!("  even spilling cannot reach this budget"),
    }

    println!("\nno schedule-then-spill iteration happened: the spill decision was made");
    println!("on the dependence graph itself, before any scheduling (paper, Section 7).");
}

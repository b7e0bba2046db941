//! Integration tests for the paper's extensions: global CFG saturation
//! (Section 6), DDG-level spilling (the stated future work), and the text
//! interchange format — exercised together, across crates.

use rs_core::cfg::{Cfg, CfgBuilder};
use rs_core::exact::ExactRs;
use rs_core::model::{OpClass, RegType, Target};
use rs_core::parse::{parse_ddg, print_ddg};
use rs_core::spill::spill_to_fit;
use rs_sched::{ListScheduler, RegisterAllocator, Resources};

/// Spill → schedule → allocate: the transformed DAG must allocate within
/// the budget with zero spills *from the allocator's point of view* (all
/// spilling already happened at the DDG level).
#[test]
fn spilled_dag_flows_through_the_whole_pipeline() {
    // L spans three short chains; R = 1 needs a spill of L.
    let mut b = rs_core::model::DdgBuilder::new(Target::superscalar());
    let l = b.op("L", OpClass::Load, Some(RegType::FLOAT));
    let f = b.op("useL", OpClass::Store, None);
    b.flow(l, f, 4, RegType::FLOAT);
    for i in 0..3 {
        let v = b.op(format!("v{i}"), OpClass::FloatAlu, Some(RegType::FLOAT));
        let s = b.op(format!("s{i}"), OpClass::Store, None);
        b.flow(v, s, 3, RegType::FLOAT);
        b.serial(l, v, 1);
        b.serial(s, f, 1);
    }
    let ddg = b.finish();

    let res = spill_to_fit(&ddg, RegType::FLOAT, 1).expect("spilling must reach R=1");
    assert!(res.rs_after <= 1);

    let sched = ListScheduler::new(Resources::four_issue()).schedule(&res.ddg);
    assert!(rs_core::lifetime::is_valid_schedule(&res.ddg, &sched.sigma));
    let alloc = RegisterAllocator::new().allocate(&res.ddg, RegType::FLOAT, &sched.sigma, 1);
    assert!(alloc.success(), "leftover spills: {:?}", alloc.spilled);
    assert!(alloc.registers_used <= 1);
}

/// The spilled DAG survives a round-trip through the text format with its
/// saturation intact.
#[test]
fn spilled_dag_roundtrips_through_text_format() {
    let mut b = rs_core::model::DdgBuilder::new(Target::superscalar());
    let l = b.op("L", OpClass::Load, Some(RegType::FLOAT));
    let f = b.op("useL", OpClass::Store, None);
    b.flow(l, f, 4, RegType::FLOAT);
    let v = b.op("v", OpClass::FloatAlu, Some(RegType::FLOAT));
    let s = b.op("sv", OpClass::Store, None);
    b.flow(v, s, 3, RegType::FLOAT);
    b.serial(l, v, 1);
    b.serial(s, f, 1);
    let ddg = b.finish();

    let spilled = rs_core::spill::spill_value(&ddg, RegType::FLOAT, l);
    let text = print_ddg(&spilled);
    let reparsed = parse_ddg(&text).unwrap();
    assert_eq!(reparsed.num_ops(), spilled.num_ops());
    let a = ExactRs::new().saturation(&spilled, RegType::FLOAT);
    let b2 = ExactRs::new().saturation(&reparsed, RegType::FLOAT);
    assert_eq!(a.saturation, b2.saturation);
}

/// A three-deep CFG: every block analysed, reduced against the
/// move-insertion reserve, and the global saturation drops accordingly.
#[test]
fn cfg_pipeline_respects_effective_budget() {
    let mut c = CfgBuilder::new(Target::superscalar());
    let head = c.add_block("head");
    let mid = c.add_block("mid");
    let tail = c.add_block("tail");
    c.branch(head, mid);
    c.branch(mid, tail);

    // head defines four parallel values, all live through mid into tail.
    let mut defs = Vec::new();
    for i in 0..4 {
        let v = c.op(head, format!("def{i}"), OpClass::Load, Some(RegType::FLOAT));
        c.live_out(head, v, RegType::FLOAT, format!("x{i}"));
        defs.push(v);
    }
    // mid consumes two, passes two through.
    let a = c.live_in(mid, "x0", RegType::FLOAT);
    let b = c.live_in(mid, "x1", RegType::FLOAT);
    let sum = c.op(mid, "x0+x1", OpClass::FloatAlu, Some(RegType::FLOAT));
    c.flow(mid, a, sum, 1, RegType::FLOAT);
    c.flow(mid, b, sum, 1, RegType::FLOAT);
    c.live_out(mid, sum, RegType::FLOAT, "sum");
    let p2 = c.live_in(mid, "x2", RegType::FLOAT);
    let p3 = c.live_in(mid, "x3", RegType::FLOAT);
    c.live_out(mid, p2, RegType::FLOAT, "x2");
    c.live_out(mid, p3, RegType::FLOAT, "x3");
    // tail folds everything.
    let s_in = c.live_in(tail, "sum", RegType::FLOAT);
    let x2 = c.live_in(tail, "x2", RegType::FLOAT);
    let x3 = c.live_in(tail, "x3", RegType::FLOAT);
    let t1 = c.op(tail, "sum+x2", OpClass::FloatAlu, Some(RegType::FLOAT));
    c.flow(tail, s_in, t1, 1, RegType::FLOAT);
    c.flow(tail, x2, t1, 1, RegType::FLOAT);
    let t2 = c.op(tail, "t1+x3", OpClass::FloatAlu, Some(RegType::FLOAT));
    c.flow(tail, t1, t2, 3, RegType::FLOAT);
    c.flow(tail, x3, t2, 1, RegType::FLOAT);
    let st = c.op(tail, "store", OpClass::Store, None);
    c.flow(tail, t2, st, 3, RegType::FLOAT);

    let mut cfg = c.finish();
    let before = cfg.global_saturation(RegType::FLOAT);
    assert!(
        before.global >= 4,
        "four live-through values: {}",
        before.global
    );

    let physical = 5;
    let outcomes = cfg.reduce_all(RegType::FLOAT, physical);
    for (name, o) in &outcomes {
        assert!(o.fits(), "block {name}: {:?}", o);
    }
    let after = cfg.global_saturation(RegType::FLOAT);
    assert!(after.global <= Cfg::effective_budget(physical));

    // every block's DDG still schedules and allocates within the physical
    // register count
    for block in &cfg.blocks {
        let sched = ListScheduler::new(Resources::four_issue()).schedule(&block.ddg);
        let alloc =
            RegisterAllocator::new().allocate(&block.ddg, RegType::FLOAT, &sched.sigma, physical);
        assert!(alloc.success(), "block {} spilled", block.name);
    }
}

/// The kernel corpus on both targets and a random sweep of 4–64 ops
/// round-trip through the text format: printing the re-parsed DDG gives
/// back the same text and every op keeps the types it writes; the kernels
/// keep their saturation too.
#[test]
fn corpus_roundtrips_through_text_format() {
    for target in [Target::superscalar(), Target::vliw()] {
        let kernels = rs_kernels::corpus()
            .into_iter()
            .map(|k| (k.name.to_string(), (k.build)(target.clone()), true));
        let random = (4..=64).step_by(4).flat_map(|ops| {
            rs_kernels::random::sweep(ops, 8, 1000 + ops as u64, target.clone())
                .into_iter()
                .enumerate()
                .map(move |(i, d)| (format!("random {ops}/{i}"), d, false))
        });
        for (name, ddg, kernel) in kernels.chain(random) {
            let name = format!("{name} ({:?})", target.kind);
            let text = print_ddg(&ddg);
            let reparsed = parse_ddg(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(print_ddg(&reparsed), text, "{name}");
            assert_eq!(reparsed.num_ops(), ddg.num_ops(), "{name}");
            for n in ddg.graph().node_ids() {
                let (a, b) = (ddg.graph().node(n), reparsed.graph().node(n));
                assert_eq!(a.writes, b.writes, "{name}: {}", a.name);
            }
            assert_eq!(
                reparsed.graph().edge_count(),
                ddg.graph().edge_count(),
                "{name}"
            );
            assert_eq!(reparsed.critical_path(), ddg.critical_path(), "{name}");
            if !kernel {
                continue;
            }
            for t in ddg.reg_types() {
                let a = rs_core::heuristic::GreedyK::new()
                    .saturation(&ddg, t)
                    .saturation;
                let b = rs_core::heuristic::GreedyK::new()
                    .saturation(&reparsed, t)
                    .saturation;
                assert_eq!(a, b, "{name}/{t:?}");
            }
        }
    }
}

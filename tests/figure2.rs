//! F2 — the paper's Figure 2, pinned as an integration test.

use rs_core::exact::ExactRs;
use rs_core::heuristic::GreedyK;
use rs_core::minimize::minimize_register_need;
use rs_core::model::{RegType, Target};
use rs_core::reduce::{ReduceOutcome, Reducer};
use rs_kernels::figure2::figure2;
use rs_sched::{ListScheduler, RegisterAllocator, Resources};

const T: RegType = RegType::FLOAT;

#[test]
fn part_a_initial_saturation_is_four() {
    let (ddg, _) = figure2(Target::superscalar());
    assert_eq!(GreedyK::new().saturation(&ddg, T).saturation, 4);
    let exact = ExactRs::new().saturation(&ddg, T);
    assert!(exact.proven_optimal);
    assert_eq!(exact.saturation, 4);
    // the four saturating values are exactly a, b, c, d
    assert_eq!(exact.saturating_values.len(), 4);
}

#[test]
fn part_a_enough_registers_leave_dag_untouched() {
    for budget in [4usize, 5, 8] {
        let (mut ddg, _) = figure2(Target::superscalar());
        let edges = ddg.graph().edge_count();
        let out = Reducer::new().reduce(&mut ddg, T, budget);
        assert!(matches!(out, ReduceOutcome::AlreadyFits { rs: 4 }));
        assert_eq!(ddg.graph().edge_count(), edges, "budget {budget}");
    }
}

#[test]
fn part_b_minimization_restricts_regardless_of_registers() {
    let (mut ddg, _) = figure2(Target::superscalar());
    let cp = ddg.critical_path();
    let m = minimize_register_need(&mut ddg, T);
    assert_eq!(m.rs_before, 4);
    assert!(
        m.rs_after <= 2,
        "paper: restricted to 2 registers, got {}",
        m.rs_after
    );
    assert!(!m.added_arcs.is_empty());
    assert_eq!(
        ddg.critical_path(),
        cp,
        "minimization must respect the critical path"
    );
}

#[test]
fn part_c_reduction_to_three_beats_minimization() {
    let (mut reduced, _) = figure2(Target::superscalar());
    let out = Reducer::new().reduce(&mut reduced, T, 3);
    assert!(out.fits());
    assert_eq!(out.ilp_loss(), 0);
    let rs_after = ExactRs::new().saturation(&reduced, T).saturation;
    assert_eq!(rs_after, 3, "RS reduced from 4 to exactly 3");
    // Any schedule of the reduced DAG now fits the budget: the four-issue
    // list schedule allocates in 3 registers without a spill.
    let sched = ListScheduler::new(Resources::four_issue()).schedule(&reduced);
    let alloc = RegisterAllocator::new().allocate(&reduced, T, &sched.sigma, 3);
    assert!(alloc.success(), "spilled {:?}", alloc.spilled);

    let (mut minimized, _) = figure2(Target::superscalar());
    let m = minimize_register_need(&mut minimized, T);
    assert!(
        out.added_arcs().len() < m.added_arcs.len(),
        "reduction must add fewer arcs ({}) than minimization ({})",
        out.added_arcs().len(),
        m.added_arcs.len()
    );
    // "for the former, the final allocator would use 1, 2 or 3 registers
    // depending on the schedule; for the latter, only 1 or 2"
    let rs_min = ExactRs::new().saturation(&minimized, T).saturation;
    assert!(rs_min < rs_after);
}

#[test]
fn exact_ilp_agrees_on_figure2() {
    let (ddg, _) = figure2(Target::superscalar());
    let ilp = rs_core::ilp::RsIlp::new().saturation(&ddg, T).unwrap();
    assert!(ilp.proven_optimal);
    assert_eq!(ilp.saturation, 4);
    // the witness schedule really needs 4 registers
    assert_eq!(rs_core::lifetime::register_need(&ddg, T, &ilp.schedule), 4);
}

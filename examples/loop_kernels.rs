//! The full Figure-1 pipeline on the scientific-kernel corpus: analyse,
//! reduce where needed, schedule under resources, allocate — and prove
//! there are no spills.
//!
//! ```text
//! cargo run --example loop_kernels [-- <registers>]
//! ```

use rs_core::engine::RsEngine;
use rs_core::heuristic::GreedyK;
use rs_core::model::{RegType, Target};
use rs_sched::{ListScheduler, RegisterAllocator, Resources};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    println!("register budget per type: {budget}\n");
    println!(
        "{:<10} {:>6} {:>6} {:>5} {:>5} {:>6} {:>6} {:>7} {:>6}",
        "kernel", "ops", "RS0", "RSf", "arcs", "CP0", "CPf", "span", "spills"
    );

    let mut engine = RsEngine::new();
    for k in rs_kernels::corpus() {
        let mut ddg = (k.build)(Target::superscalar());
        let cp0 = ddg.critical_path();
        let rs0 = GreedyK::new().saturation(&ddg, RegType::FLOAT).saturation;

        // Figure 1: saturation analysis + reduction, per type.
        let (mut rs_f, mut arcs, mut all_fit) = (rs0, 0, true);
        for t in [RegType::INT, RegType::FLOAT] {
            if ddg.values(t).is_empty() {
                continue;
            }
            let outcome = engine.reduce(&mut ddg, t, budget);
            arcs += outcome.added_arcs().len();
            all_fit &= outcome.fits();
            if t == RegType::FLOAT {
                rs_f = outcome.rs_after();
            }
        }

        // Downstream: register-oblivious scheduling, then allocation.
        let sched = ListScheduler::new(Resources::four_issue()).schedule(&ddg);
        let allocator = RegisterAllocator::new();
        let mut spills = 0;
        for t in ddg.reg_types() {
            spills += allocator
                .allocate(&ddg, t, &sched.sigma, budget)
                .spilled
                .len();
        }

        println!(
            "{:<10} {:>6} {:>6} {:>5} {:>5} {:>6} {:>6} {:>7} {:>6}{}",
            k.name,
            ddg.num_ops(),
            rs0,
            rs_f,
            arcs,
            cp0,
            ddg.critical_path(),
            sched.makespan,
            spills,
            if all_fit {
                ""
            } else {
                "  (budget infeasible: spill code required)"
            },
        );
    }

    println!("\nRS0 = float saturation before the pass; RSf = after; CP = critical path;");
    println!("span = makespan on a 4-issue machine. Zero spills whenever the budget fits —");
    println!("the scheduler never had to think about registers (Figure 1 of the paper).");
}

//! Thread-scaling + bounded-simplex benchmark for the MILP engine:
//! random-kernel register-saturation intLP models (Section 3) across a
//! threads × size grid, with a differential run against the
//! explicit-bound-row *reference* formulation (`rs_lp::reference`) — the
//! pre-rewrite engine — on every instance.
//!
//! This target uses a hand-rolled harness instead of criterion because it
//! measures *wall-clock scaling* of one long solve per cell (not
//! per-iteration micro-times) and emits a JSON perf report under
//! `results/milp_scaling.json` for the CI artifact / perf trajectory. The
//! previous report's cells are folded into the new one
//! (`previous_cells`), so the artifact always carries its own
//! before/after.
//!
//! Modes follow the criterion convention: `cargo bench` (passes `--bench`)
//! runs the full grid; `--test` (or no `--bench`) runs a small smoke grid.
//! In every mode the harness asserts:
//! - the optimal objective, the node count, *and* the committed-trace
//!   digest are identical across thread counts (partitioned-search
//!   determinism — same tree, not just same answer; `nodes_invariant:
//!   true` in the report), with the objective also equal to the reference
//!   formulation's;
//! - the bounded path's tableau row count equals the structural
//!   constraint count — zero bound rows — while the reference tableau
//!   carries one extra row per finite upper bound.

use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};
use rs_lp::{MilpConfig, Model};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct Cell {
    size: usize,
    threads: usize,
    millis: f64,
    objective: i64,
    nodes: usize,
    /// Order-sensitive FNV digest of the committed node trace (depth +
    /// branch path per node). Identical across the thread grid — the
    /// statically-partitioned search explores byte-for-byte the same tree
    /// at every thread count (asserted below).
    trace_digest: u64,
    lp_solves: usize,
    warm_solves: usize,
    warm_hits: usize,
    /// Branching decisions taken from trusted accumulated pseudocosts.
    pseudocost_branches: usize,
    /// Strong-branching-lite probes spent initializing pseudocosts.
    strong_branch_probes: usize,
    pivots: usize,
    bound_flips: usize,
    /// Dual-repair pivots, priced by dual steepest edge (subset of
    /// `pivots`).
    dse_pivots: usize,
    /// Cutting planes accepted into the pool (root + in-tree, deduped).
    cuts_added: usize,
    /// Root separation rounds that accepted at least one cut.
    cut_rounds: usize,
    /// Nodes fathomed by per-node bound propagation (no LP solve spent).
    propagation_fathoms: usize,
    /// Fraction of the root integrality gap closed by the root cut loop:
    /// `(pre − post) / (pre − optimum)`; absent when the loop never ran
    /// or the root relaxation was already tight.
    root_gap_closed: Option<f64>,
    /// Tableau rows including appended cut rows.
    rows: usize,
    cols: usize,
}

/// One serial solve of the same instance through the explicit-bound-row
/// reference engine (the pre-bounded-simplex formulation).
#[derive(Serialize)]
struct ReferenceRun {
    size: usize,
    millis: f64,
    objective: i64,
    nodes: usize,
    pivots: usize,
    rows: usize,
    cols: usize,
}

/// `(size, threads, millis, nodes)` of the report this run replaced — the
/// before/after trail of the perf trajectory. `nodes` feeds the
/// informational `nodes_vs_previous_1t` tree-size trajectory below (not
/// asserted — a legitimate branching change may trade one size's tree for
/// another's; reviewers compare the trail across reports instead).
#[derive(Serialize)]
struct PrevCell {
    size: usize,
    threads: usize,
    millis: f64,
    nodes: Option<usize>,
}

#[derive(Serialize)]
struct Report {
    bench_mode: bool,
    host_parallelism: usize,
    cells: Vec<Cell>,
    /// Differential baseline: the explicit-bound-row reference engine.
    reference: Vec<ReferenceRun>,
    /// Cells of the report this run overwrote (empty on a fresh checkout).
    previous_cells: Vec<PrevCell>,
    /// Wall-clock speedup of 4 threads over 1 thread on the largest model
    /// (absent when the grid has no 4-thread column).
    speedup_4t_largest: Option<f64>,
    /// Wall-clock speedup of the bounded single-thread run over the
    /// reference run, per size.
    speedup_vs_reference: Vec<(usize, f64)>,
    /// `(size, nodes now, nodes in the previous report)` at one thread —
    /// the pseudocost-branching tree-size trajectory, recorded (not
    /// asserted) so successive reports carry their own before/after
    /// comparison.
    nodes_vs_previous_1t: Vec<(usize, usize, Option<usize>)>,
    /// Every instance solved with an identical node count *and* trace
    /// digest across the whole thread grid. Asserted per cell — a report
    /// only ever exists with `true` here; the field makes the guarantee
    /// visible in the artifact.
    nodes_invariant: bool,
}

/// The Section-3 saturation intLP of a seeded random kernel of `ops`
/// operations — the workload whose solve time bounds the exact
/// experiments.
fn random_kernel_model(ops: usize, seed: u64) -> Model {
    let cfg = RandomDagConfig::sized(ops, seed);
    let ddg = random_ddg(&cfg, Target::superscalar());
    RsIlp::new().build_model(&ddg, RegType::FLOAT).0
}

/// Extraction of `(size, threads, millis, nodes)` from a previous report's
/// `cells` array, parsed with the vendored `serde_json::from_str` (this
/// replaced a tolerant line scan once the shim grew a real deserializer).
/// `nodes` is absent from reports older than the field itself.
fn read_previous_cells(path: &std::path::Path) -> Vec<PrevCell> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(report) = serde_json::from_str(&text) else {
        return Vec::new();
    };
    let Some(cells) = report.get("cells").and_then(|c| c.as_array()) else {
        return Vec::new();
    };
    cells
        .iter()
        .filter_map(|cell| {
            Some(PrevCell {
                size: cell.get("size")?.as_u64()? as usize,
                threads: cell.get("threads")?.as_u64()? as usize,
                millis: cell.get("millis")?.as_f64()?,
                nodes: cell
                    .get("nodes")
                    .and_then(|n| n.as_u64())
                    .map(|n| n as usize),
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = args.iter().any(|a| a == "--bench") && !args.iter().any(|a| a == "--test");

    // Curated (size, seed) pairs: the intLP solve-time landscape over
    // random kernels is bimodal (most instances solve in milliseconds, a
    // minority fall off a big-M cliff), so the grid pins seeds whose
    // branch-and-bound trees are large enough to exercise the parallel
    // node pool yet provably finish.
    let (instances, thread_grid): (&[(usize, u64)], &[usize]) = if bench_mode {
        (&[(12, 1), (14, 0), (18, 4)], &[1, 2, 4])
    } else {
        (&[(12, 1)], &[1, 2])
    };

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let previous_cells = read_previous_cells(&out_dir.join("milp_scaling.json"));
    let mut cells: Vec<Cell> = Vec::new();
    let mut reference: Vec<ReferenceRun> = Vec::new();
    let mut speedup_vs_reference: Vec<(usize, f64)> = Vec::new();
    println!("milp_scaling: host parallelism {host_parallelism}");
    println!(
        "{:>6} {:>9} {:>12} {:>10} {:>8} {:>9} {:>10} {:>9} {:>6} {:>6}",
        "size",
        "threads",
        "millis",
        "objective",
        "nodes",
        "warm",
        "pivots",
        "rows",
        "cuts",
        "pfath"
    );

    for &(size, seed) in instances {
        let model = random_kernel_model(size, 0xBEEF + size as u64 + seed * 7919);

        // Differential baseline: one serial solve through the
        // explicit-bound-row reference engine (the pre-rewrite
        // formulation; no live node tableau, bound rows in the tableau).
        let start = Instant::now();
        let ref_sol = rs_lp::reference::solve_milp(&model, &MilpConfig::default())
            .expect("RS model feasible");
        let ref_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(ref_sol.stats.proven_optimal, "reference hit the budget");
        let ref_obj = ref_sol.objective.round() as i64;
        println!(
            "{size:>6} {:>9} {ref_millis:>12.1} {ref_obj:>10} {:>8} {:>9} {:>10} {:>9}",
            "ref", ref_sol.stats.nodes, "-", ref_sol.stats.pivots, ref_sol.stats.rows
        );
        reference.push(ReferenceRun {
            size,
            millis: ref_millis,
            objective: ref_obj,
            nodes: ref_sol.stats.nodes,
            pivots: ref_sol.stats.pivots,
            rows: ref_sol.stats.rows,
            cols: ref_sol.stats.cols,
        });

        let mut first_trace: Option<(usize, u64)> = None;
        for &threads in thread_grid {
            // Audit forced on across the whole grid: the pre-solve static
            // pass must never perturb nodes, digest, or objective — the
            // invariant assertions below run against audited solves.
            let cfg = MilpConfig {
                audit: true,
                ..MilpConfig::with_threads(threads)
            };
            let start = Instant::now();
            let sol = rs_lp::solve(&model, &cfg).expect("RS model is feasible");
            let millis = start.elapsed().as_secs_f64() * 1e3;
            assert!(sol.stats.proven_optimal, "size {size} hit the budget");
            assert!(sol.stats.audited, "audit was requested for every cell");
            let obj = sol.objective.round() as i64;
            // Determinism + differential correctness: neither the thread
            // count nor the bound-handling formulation may change the
            // optimum.
            assert_eq!(
                obj, ref_obj,
                "size {size}: threads={threads} diverges from the reference objective"
            );
            // Partitioned-search determinism: the tree itself — not just
            // the optimum — is identical at every thread count, node
            // count and committed-trace digest both.
            match first_trace {
                None => first_trace = Some((sol.stats.nodes, sol.stats.trace_digest)),
                Some((n0, d0)) => {
                    assert_eq!(
                        sol.stats.nodes, n0,
                        "size {size}: threads={threads} changed the node count"
                    );
                    assert_eq!(
                        sol.stats.trace_digest, d0,
                        "size {size}: threads={threads} changed the trace digest"
                    );
                }
            }
            // The bounded-simplex invariant: no explicit bound rows — the
            // tableau has at most the structural constraint rows (presolve
            // may fold singleton rows away, never add any) plus the cut
            // rows the search itself appended.
            assert!(
                sol.stats.rows <= model.num_constraints() + sol.stats.cuts_added,
                "size {size}: bounded path emitted bound rows ({} rows > {} constraints + {} cuts)",
                sol.stats.rows,
                model.num_constraints(),
                sol.stats.cuts_added
            );
            // Both engines presolve identically, so the reference tableau
            // must exceed the bounded one by exactly its explicit bound
            // rows (one per finite upper bound — strictly more rows).
            assert!(
                ref_sol.stats.rows > sol.stats.rows,
                "size {size}: reference must carry explicit bound rows \
                 ({} vs bounded {})",
                ref_sol.stats.rows,
                sol.stats.rows
            );
            println!(
                "{size:>6} {threads:>9} {millis:>12.1} {obj:>10} {:>8} {:>9} {:>10} {:>9} {:>6} {:>6}",
                sol.stats.nodes,
                sol.stats.warm_solves,
                sol.stats.pivots,
                sol.stats.rows,
                sol.stats.cuts_added,
                sol.stats.propagation_fathoms
            );
            if threads == 1 && ref_millis > 0.0 {
                speedup_vs_reference.push((size, ref_millis / millis.max(1e-9)));
            }
            cells.push(Cell {
                size,
                threads,
                millis,
                objective: obj,
                nodes: sol.stats.nodes,
                trace_digest: sol.stats.trace_digest,
                lp_solves: sol.stats.lp_solves,
                warm_solves: sol.stats.warm_solves,
                warm_hits: sol.stats.warm_hits,
                pseudocost_branches: sol.stats.pseudocost_branches,
                strong_branch_probes: sol.stats.strong_branch_probes,
                pivots: sol.stats.pivots,
                bound_flips: sol.stats.bound_flips,
                dse_pivots: sol.stats.dse_pivots,
                cuts_added: sol.stats.cuts_added,
                cut_rounds: sol.stats.cut_rounds,
                propagation_fathoms: sol.stats.propagation_fathoms,
                root_gap_closed: {
                    let pre = sol.stats.root_bound_pre_cuts;
                    let post = sol.stats.root_bound_post_cuts;
                    let gap = pre - sol.objective;
                    if pre.is_finite() && post.is_finite() && gap.abs() > 1e-9 {
                        Some((pre - post) / gap)
                    } else {
                        None
                    }
                },
                rows: sol.stats.rows,
                cols: sol.stats.cols,
            });
        }
    }

    let largest = instances.iter().map(|&(s, _)| s).max().unwrap();
    let time_of = |threads: usize| {
        cells
            .iter()
            .find(|c| c.size == largest && c.threads == threads)
            .map(|c| c.millis)
    };
    let speedup_4t_largest = match (time_of(1), time_of(4)) {
        (Some(t1), Some(t4)) if t4 > 0.0 => Some(t1 / t4),
        _ => None,
    };
    if let Some(s) = speedup_4t_largest {
        println!("speedup at 4 threads on size {largest}: {s:.2}x");
        // The bounded rewrite + diving incumbents shrank the search trees
        // 5-10x, so the remaining parallelizable work per instance is small
        // and the 4-thread ratio is exploration-luck dominated; it is
        // reported (and captured in the JSON trajectory) rather than
        // asserted. The hard guarantees stay asserted above: identical
        // objectives for every thread count and for the reference engine.
        if host_parallelism >= 4 && s < 2.0 {
            println!("note: 4-thread speedup below 2x on a multi-core host — see report");
        }
    }
    for &(size, s) in &speedup_vs_reference {
        println!("size {size}: bounded 1T is {s:.2}x the explicit-bound-row reference");
    }

    // Tree-size trajectory: pseudocost branching vs the previous report's
    // single-thread cells.
    let nodes_vs_previous_1t: Vec<(usize, usize, Option<usize>)> = cells
        .iter()
        .filter(|c| c.threads == 1)
        .map(|c| {
            let prev = previous_cells
                .iter()
                .find(|p| p.size == c.size && p.threads == 1)
                .and_then(|p| p.nodes);
            (c.size, c.nodes, prev)
        })
        .collect();
    for &(size, now, prev) in &nodes_vs_previous_1t {
        match prev {
            Some(prev) => println!("size {size}: {now} nodes at 1T (previous report: {prev})"),
            None => println!("size {size}: {now} nodes at 1T (no previous node data)"),
        }
    }

    let text = format!(
        "milp_scaling: {} cells, host parallelism {}, 4-thread speedup on largest model: {}, \
         bounded-vs-reference 1T speedups: {}\n",
        cells.len(),
        host_parallelism,
        speedup_4t_largest.map_or("n/a".to_string(), |s| format!("{s:.2}x")),
        speedup_vs_reference
            .iter()
            .map(|(sz, s)| format!("{sz}:{s:.2}x"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let report = Report {
        bench_mode,
        host_parallelism,
        cells,
        reference,
        previous_cells,
        speedup_4t_largest,
        speedup_vs_reference,
        nodes_vs_previous_1t,
        // Reached only if every per-cell node-count/digest assertion held.
        nodes_invariant: true,
    };
    rs_bench::common::write_report(&out_dir, "milp_scaling", &text, &report);
    println!(
        "report written to {}",
        out_dir.join("milp_scaling.json").display()
    );
}

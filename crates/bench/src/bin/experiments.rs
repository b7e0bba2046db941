//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p rs-bench --release --bin experiments            # all, full size
//! cargo run -p rs-bench --release --bin experiments -- --quick # smaller sweeps
//! cargo run -p rs-bench --release --bin experiments -- --exp t1
//! ```
//!
//! `--exp` takes `all` or one experiment, by its short name or its alias
//! (`t1` or `rs-optimality`, ...); `--out DIR` moves the reports. An
//! unknown name, a flag without its value, or any other argument is
//! `error[usage]` with exit status 1, before any experiment runs.
//!
//! Reports land in `results/*.txt` (human-readable) and `results/*.json`
//! (machine-readable); a report that cannot be written stops the run with
//! `error[io]` and exit status 1.

#![forbid(unsafe_code)]

use rs_bench::{
    figure2, t1_rs_optimality, t2_reduce_optimality, t3_model_size, t4_min_vs_saturate, t5_ablation,
};
use rs_core::request::RsError;
use rs_serve::write_report;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: error[{}]: {e}", e.code());
            ExitCode::FAILURE
        }
    }
}

/// Each experiment's `--exp` names: its short name and its alias.
const F2: [&str; 2] = ["f2", "figure2"];
const T1: [&str; 2] = ["t1", "rs-optimality"];
const T2: [&str; 2] = ["t2", "reduce-optimality"];
const T3: [&str; 2] = ["t3", "model-size"];
const T4: [&str; 2] = ["t4", "min-vs-saturate"];
const T5: [&str; 2] = ["t5", "ablation"];

fn run() -> Result<(), RsError> {
    let mut quick = false;
    let mut exp = String::from("all");
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--exp" => {
                exp = args
                    .next()
                    .ok_or_else(|| RsError::usage("--exp needs a name"))?
            }
            "--out" => {
                out_dir = args
                    .next()
                    .ok_or_else(|| RsError::usage("--out needs a directory"))?
                    .into();
            }
            other => return Err(RsError::usage(format!("unknown argument `{other}`"))),
        }
    }
    let picks = |names: [&str; 2]| exp == "all" || names.contains(&exp.as_str());
    if ![F2, T1, T2, T3, T4, T5].into_iter().any(picks) {
        return Err(RsError::usage(format!(
            "unknown experiment `{exp}` (all, f2, t1, t2, t3, t4, t5, or an alias)"
        )));
    }

    if picks(F2) {
        banner("Figure 2");
        let (text, report) = figure2::run();
        println!("{text}");
        write_report(&out_dir, "figure2", &text, &report)?;
    }
    if picks(T1) {
        banner("T1 — RS computation optimality");
        let (text, report) = t1_rs_optimality::run(quick);
        println!("{text}");
        write_report(&out_dir, "t1_rs_optimality", &text, &report)?;
    }
    if picks(T2) {
        banner("T2 — RS reduction optimality");
        let (text, report) = t2_reduce_optimality::run(quick);
        println!("{text}");
        write_report(&out_dir, "t2_reduce_optimality", &text, &report)?;
    }
    if picks(T3) {
        banner("T3 — intLP model sizes");
        let (text, report) = t3_model_size::run(quick);
        println!("{text}");
        write_report(&out_dir, "t3_model_size", &text, &report)?;
    }
    if picks(T4) {
        banner("T4 — minimize vs saturate");
        let (text, report) = t4_min_vs_saturate::run(quick);
        println!("{text}");
        write_report(&out_dir, "t4_min_vs_saturate", &text, &report)?;
    }

    if picks(T5) {
        banner("T5b — ablations");
        let (text, report) = t5_ablation::run(quick);
        println!("{text}");
        write_report(&out_dir, "t5_ablation", &text, &report)?;
    }

    println!("reports written to {}", out_dir.display());
    Ok(())
}

fn banner(title: &str) {
    println!("\n################################################################");
    println!("# {title}");
    println!("################################################################\n");
}

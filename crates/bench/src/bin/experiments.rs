//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p rs-bench --release --bin experiments            # all, full size
//! cargo run -p rs-bench --release --bin experiments -- --quick # smaller sweeps
//! cargo run -p rs-bench --release --bin experiments -- --exp t1
//! ```
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
            eprintln!("experiments: error[{}]: {}", e.code, e.message);
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), RsError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("all");
    let out_dir = PathBuf::from(
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "results".into()),
    );

    let run_t1 = exp == "all" || exp == "t1" || exp == "rs-optimality";
    let run_t2 = exp == "all" || exp == "t2" || exp == "reduce-optimality";
    let run_t3 = exp == "all" || exp == "t3" || exp == "model-size";
    let run_t4 = exp == "all" || exp == "t4" || exp == "min-vs-saturate";
    let run_f2 = exp == "all" || exp == "f2" || exp == "figure2";
    let run_t5 = exp == "all" || exp == "t5" || exp == "ablation";

    if run_f2 {
        banner("Figure 2");
        let (text, report) = figure2::run();
        println!("{text}");
        write_report(&out_dir, "figure2", &text, &report)?;
    }
    if run_t1 {
        banner("T1 — RS computation optimality");
        let (text, report) = t1_rs_optimality::run(quick);
        println!("{text}");
        write_report(&out_dir, "t1_rs_optimality", &text, &report)?;
    }
    if run_t2 {
        banner("T2 — RS reduction optimality");
        let (text, report) = t2_reduce_optimality::run(quick);
        println!("{text}");
        write_report(&out_dir, "t2_reduce_optimality", &text, &report)?;
    }
    if run_t3 {
        banner("T3 — intLP model sizes");
        let (text, report) = t3_model_size::run(quick);
        println!("{text}");
        write_report(&out_dir, "t3_model_size", &text, &report)?;
    }
    if run_t4 {
        banner("T4 — minimize vs saturate");
        let (text, report) = t4_min_vs_saturate::run(quick);
        println!("{text}");
        write_report(&out_dir, "t4_min_vs_saturate", &text, &report)?;
    }

    if run_t5 {
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

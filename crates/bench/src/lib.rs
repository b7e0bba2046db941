//! # rs-bench — experiment regenerators
//!
//! One module per paper artifact:
//!
//! | module | artifact |
//! |---|---|
//! | [`t1_rs_optimality`] | Section 5, RS-computation optimality ("max error one register, in very few cases") |
//! | [`t2_reduce_optimality`] | Section 5 category table (72.22 % / 18.5 % / 4.63 % / <1 % / 3.7 %) |
//! | [`t3_model_size`] | Section 3 size claim: `O(n²)` vars, `O(m+n²)` constraints vs a time-indexed baseline |
//! | [`t4_min_vs_saturate`] | Section 6 discussion: saturation reduction vs register minimization |
//! | [`t5_ablation`] | Ablations of the reproduction's own choices: Greedy-k refinement, the Section-3 pair pre-filter, ReduceIlp horizon escalation |
//! | [`figure2`] | Figure 2 worked example |
//!
//! The `experiments` binary drives the artifact modules and, like
//! `rsat corpus`, writes `results/*.txt` and `results/*.json` through
//! [`rs_serve::write_report`]. The corpus runner behind `rsat corpus`
//! lives in [`rs_serve::corpus`], next to the dispatcher it drives.

#![forbid(unsafe_code)]

pub mod common;
pub mod figure2;
pub mod t1_rs_optimality;
pub mod t2_reduce_optimality;
pub mod t3_model_size;
pub mod t4_min_vs_saturate;
pub mod t5_ablation;

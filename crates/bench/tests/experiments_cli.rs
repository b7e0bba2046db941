//! The `experiments` binary rejects arguments it cannot honour before any
//! experiment runs. Every case names an unknown experiment, so a binary
//! that ignored the bad argument would still run nothing.

use std::process::Command;

fn rejects(args: &[&str], why: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("experiments: error[usage]: ") && stderr.contains(why),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = std::env::temp_dir().join(format!("experiments_cli_{}", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp dir");
    rejects(
        &["--exp", "nonsense", "--out", out_arg],
        "unknown experiment `nonsense`",
    );
    assert!(!out.exists(), "no report directory for a rejected run");
}

#[test]
fn value_flag_without_value_is_a_usage_error() {
    rejects(&["--exp", "nonsense", "--out"], "--out needs a directory");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    rejects(
        &["--exp", "nonsense", "--bogus"],
        "unknown argument `--bogus`",
    );
}

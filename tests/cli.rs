//! Integration tests for the `rsat` command-line tool and the DDG text
//! format shipped in `examples/data/`.

use std::process::Command;

fn rsat(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args(args)
        .output()
        .expect("run rsat");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn data(name: &str) -> String {
    format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_smoke_on_shipped_fixtures() {
    // Every fixture under examples/data/ must stay analysable: `rsat
    // analyze` exits 0 and reports a saturation value for each.
    let dir = format!("{}/examples/data", env!("CARGO_MANIFEST_DIR"));
    let mut fixtures: Vec<String> = std::fs::read_dir(&dir)
        .expect("read examples/data")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().unwrap();
            name.ends_with(".ddg").then_some(name)
        })
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 2, "expected shipped fixtures in {dir}");
    for fixture in &fixtures {
        let (ok, stdout, stderr) = rsat(&["analyze", &data(fixture)]);
        assert!(ok, "analyze {fixture} failed: {stderr}");
        assert!(stdout.contains("RS* ="), "{fixture}: {stdout}");
    }
}

#[test]
fn analyze_reports_saturation() {
    let (ok, stdout, _) = rsat(&["analyze", &data("expr.ddg"), "--exact"]);
    assert!(ok);
    assert!(stdout.contains("RS* = 4"), "{stdout}");
    assert!(stdout.contains("exact RS = 4"), "{stdout}");
    assert!(stdout.contains("saturating values"), "{stdout}");
}

#[test]
fn reduce_roundtrips_through_the_text_format() {
    let out_path = std::env::temp_dir().join("rsat_test_reduced.ddg");
    let out_str = out_path.to_str().unwrap();
    let (ok, stdout, _) = rsat(&[
        "reduce",
        &data("expr.ddg"),
        "--registers",
        "3",
        "--output",
        out_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("RS 4 -> 3"), "{stdout}");

    // the written file parses and analyses to the reduced saturation
    let (ok, stdout, _) = rsat(&["analyze", out_str, "--exact"]);
    assert!(ok);
    assert!(stdout.contains("exact RS = 3"), "{stdout}");
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn pipeline_reports_zero_spills() {
    let (ok, stdout, _) = rsat(&["pipeline", &data("daxpy.ddg"), "--registers", "4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 spills"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
}

#[test]
fn dot_emits_graphviz() {
    let (ok, stdout, _) = rsat(&["dot", &data("expr.ddg")]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("->"));
}

#[test]
fn impossible_budget_suggests_spill_flag() {
    let (ok, _, stderr) = rsat(&["reduce", &data("expr.ddg"), "--registers", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--spill"), "{stderr}");
}

#[test]
fn bad_input_reports_line_numbers() {
    let bad = std::env::temp_dir().join("rsat_test_bad.ddg");
    std::fs::write(&bad, "op a load float\nflow a missing 1 float\n").unwrap();
    let (ok, _, stderr) = rsat(&["analyze", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    let _ = std::fs::remove_file(bad);
}

#[test]
fn out_of_range_latency_is_a_parse_error() {
    // A latency whose path sum would wrap i64: rejected at its line
    // instead of reported as a wrapped critical path.
    let bad = std::env::temp_dir().join("rsat_test_wrapping_latency.ddg");
    std::fs::write(
        &bad,
        "op a load float\nop b fadd float\nop s store none\n\
         flow a b 9223372036854775000 float\nflow b s 4000 float\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args(["analyze", bad.to_str().unwrap(), "--ilp"])
        .output()
        .expect("run rsat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error[parse]"), "{stderr}");
    assert!(stderr.contains("line 4"), "{stderr}");
    let _ = std::fs::remove_file(bad);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = rsat(&["frobnicate", &data("expr.ddg")]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn only_usage_errors_print_the_usage_text() {
    // An unreadable file or a malformed one is about the input, not the
    // command line: one error line, exit 1, no usage block. A malformed
    // command line still gets the usage block.
    let risc = std::env::temp_dir().join(format!("rsat-risc-{}.ddg", std::process::id()));
    std::fs::write(&risc, "target risc\nop a load float\n").unwrap();
    let missing = data("no-such-file.ddg");
    let cases: [(&[&str], &str, bool); 3] = [
        (&["analyze", risc.to_str().unwrap()], "error[parse]", false),
        (&["analyze", &missing], "error[io]", false),
        (
            &["analyze", &data("expr.ddg"), "--exactt"],
            "error[usage]",
            true,
        ),
    ];
    for (args, code, usage) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args(args)
            .output()
            .expect("run rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(code), "{args:?}: {stderr}");
        assert_eq!(stderr.contains("usage:"), usage, "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(risc);
}

#[test]
fn flag_without_value_is_a_usage_error() {
    // A value flag given last, or followed by another flag, must fail
    // before anything runs: no daemon starts, no solve runs at a default,
    // and no file is written (not even one named after the next flag).
    let cwd = std::env::temp_dir().join(format!("rsat-missing-value-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let expr = data("expr.ddg");
    let reduce = ["reduce", &expr, "--registers", "3", "--output"];
    let cases: [(&[&str], &str); 4] = [
        (&["analyze", &expr, "--threads"], "--threads"),
        (&reduce, "--output"),
        (&[&reduce[..], &["--spill"]].concat(), "--output"),
        (&["serve", "--faults"], "--faults"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("run rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[usage]: missing value for {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(written.is_empty(), "files written: {written:?}");
    let _ = std::fs::remove_dir(&cwd);
}

#[test]
fn unparsable_flag_value_is_a_usage_error() {
    // A numeric flag whose value does not parse must fail before anything
    // runs, naming the flag: no output, no file written, no daemon started.
    let cwd = std::env::temp_dir().join(format!("rsat-bad-value-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let (expr, fixtures) = (data("expr.ddg"), data(""));
    let pipeline = ["pipeline", &expr, "--registers", "3"];
    let cases: [(&[&str], &str); 8] = [
        (&["analyze", &expr, "--threads", "x"], "--threads"),
        (&["reduce", &expr, "--registers", "x"], "--registers"),
        (&[&pipeline[..], &["--issue", "x"]].concat(), "--issue"),
        (&["analyze", &expr, "--timeout-ms", "x"], "--timeout-ms"),
        (&["corpus", &fixtures, "--jobs", "x"], "--jobs"),
        (&["serve", "--workers", "x"], "--workers"),
        (&["serve", "--queue", "x"], "--queue"),
        (&["serve", "--cache-capacity", "x"], "--cache-capacity"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args(args)
            .current_dir(&cwd)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[usage]: bad {flag} value")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        assert!(
            !stderr.contains("rsat serve:"),
            "{args:?} started: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(written.is_empty(), "files written: {written:?}");
    let _ = std::fs::remove_dir(&cwd);
}

#[test]
fn unknown_argument_is_a_usage_error() {
    // A misspelt flag, a flag of another subcommand, or a stray operand
    // must fail before anything runs instead of being ignored: no output,
    // no report written, and the argument named in the error.
    let cwd = std::env::temp_dir().join(format!("rsat-unknown-arg-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let (expr, daxpy, fixtures) = (data("expr.ddg"), data("daxpy.ddg"), data(""));
    let cases: [(&[&str], &str); 6] = [
        (&["analyze", &expr, "--exactt"], "--exactt"),
        (&["analyze", &expr, "--thread", "4"], "--thread"),
        (
            &["pipeline", &daxpy, "--registers", "4", "--spill"],
            "--spill",
        ),
        (&["reduce", &expr, "--registers", "3", "--exact"], "--exact"),
        (&["corpus", &fixtures, "--threads", "2"], "--threads"),
        (&["analyze", &expr, "extra.ddg"], "extra.ddg"),
    ];
    for (args, arg) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("run rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[usage]: unexpected argument `{arg}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(written.is_empty(), "files written: {written:?}");
    let _ = std::fs::remove_dir(&cwd);

    // `pipeline` restricts its types like the other one-shots
    let (ok, stdout, stderr) = rsat(&["pipeline", &daxpy, "--registers", "4", "--type", "float"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("type float:"), "{stdout}");
    assert!(!stdout.contains("type int:"), "{stdout}");
}

//! Integration tests for `rsat corpus`: parallel directory runs, JSON/text
//! report output, exit-code hygiene for malformed corpus files and for
//! invalid requests or unwritable reports, and `--jobs` independence of
//! the summary.

use rs_core::request::{RsOp, RsRequest};
use rs_serve::{run_corpus, CorpusOptions, Dispatcher};
use std::path::{Path, PathBuf};
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

fn fixtures() -> String {
    format!("{}/examples/data", env!("CARGO_MANIFEST_DIR"))
}

/// A scratch corpus directory seeded with the shipped fixtures plus a
/// malformed file; removed on drop.
struct TempCorpus {
    dir: PathBuf,
    out: PathBuf,
}

impl TempCorpus {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rsat_corpus_cli_{tag}"));
        let out = std::env::temp_dir().join(format!("rsat_corpus_cli_{tag}_out"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&dir).unwrap();
        for fixture in ["expr.ddg", "daxpy.ddg"] {
            std::fs::copy(Path::new(&fixtures()).join(fixture), dir.join(fixture)).unwrap();
        }
        TempCorpus { dir, out }
    }

    fn add_malformed(&self) {
        // line 3 references an undefined op — a parse error with a line number
        std::fs::write(
            self.dir.join("broken.ddg"),
            "target superscalar\nop a load float\nflow a ghost 1 float\n",
        )
        .unwrap();
    }
}

impl Drop for TempCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir_all(&self.out);
    }
}

#[test]
fn corpus_runs_shipped_fixtures_and_writes_reports() {
    let tc = TempCorpus::new("basic");
    let dir = tc.dir.to_str().unwrap();
    let out = tc.out.to_str().unwrap();
    let (ok, stdout, stderr) = rsat(&["corpus", dir, "--jobs", "2", "--out", out]);
    assert!(ok, "corpus run failed: {stderr}");
    assert!(stdout.contains("2 files, 2 analyzed, 0 failed"), "{stdout}");
    assert!(stdout.contains("expr.ddg"), "{stdout}");
    // both report artifacts exist and carry the analysis
    let json = std::fs::read_to_string(tc.out.join("corpus.json")).unwrap();
    assert!(json.contains("\"saturation\": 4"), "{json}");
    assert!(std::fs::read_to_string(tc.out.join("corpus.txt")).is_ok());
}

#[test]
fn malformed_file_is_skipped_with_success_exit_code() {
    let tc = TempCorpus::new("malformed");
    tc.add_malformed();
    let dir = tc.dir.to_str().unwrap();
    let out = tc.out.to_str().unwrap();
    let (ok, stdout, stderr) = rsat(&["corpus", dir, "--jobs", "2", "--out", out]);
    assert!(
        ok,
        "a malformed corpus file must not abort the run: {stderr}"
    );
    assert!(stdout.contains("3 files, 2 analyzed, 1 failed"), "{stdout}");
    assert!(stdout.contains("broken.ddg: SKIPPED"), "{stdout}");
    // the error (with its line number) is carried into the JSON summary
    let json = std::fs::read_to_string(tc.out.join("corpus.json")).unwrap();
    assert!(json.contains("line 3"), "{json}");
    assert!(json.contains("\"failed\": 1"), "{json}");
}

#[test]
fn driver_level_failures_do_fail() {
    let (ok, _, stderr) = rsat(&["corpus", "/nonexistent_rsat_dir"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read directory"), "{stderr}");

    // reduce/pipeline modes require a budget
    let (ok, _, stderr) = rsat(&["corpus", &fixtures(), "--mode", "reduce"]);
    assert!(!ok);
    assert!(stderr.contains("--registers"), "{stderr}");

    // a zero budget is rejected at flag parsing, not by a worker panic
    let (ok, _, stderr) = rsat(&[
        "corpus",
        &fixtures(),
        "--mode",
        "reduce",
        "--registers",
        "0",
    ]);
    assert!(!ok);
    assert!(stderr.contains("at least 1"), "{stderr}");

    // only analyze runs the intLP: `--ilp` on a reduction is rejected
    // before the directory is read, so a missing one answers the same
    for dir in [fixtures(), "/nonexistent_rsat_dir".to_string()] {
        let (ok, stdout, stderr) = rsat(&[
            "corpus",
            &dir,
            "--mode",
            "reduce",
            "--registers",
            "3",
            "--ilp",
        ]);
        assert!(!ok && stdout.is_empty(), "{stdout}");
        assert!(
            stderr.contains("error[usage]") && stderr.contains("`ilp`"),
            "{stderr}"
        );
    }
}

#[test]
fn unwritable_out_is_an_io_error() {
    // `--out` below a regular file cannot be created: after the batch the
    // report writer answers `error[io]` with exit status 1, not a panic.
    let tc = TempCorpus::new("unwritable");
    std::fs::write(&tc.out, "a regular file").unwrap();
    let out = tc.out.join("sub");
    let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args([
            "corpus",
            tc.dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run rsat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error[io]"), "{stderr}");
    let _ = std::fs::remove_file(&tc.out);
}

#[test]
fn a_timed_out_file_keeps_its_partial_result() {
    // A deadline that expires mid-reduction answers `timeout` with the
    // best partial result; the entry keeps it next to its error, and the
    // file still counts as failed.
    let tc = TempCorpus::new("timeout");
    let (dir, out) = (tc.dir.to_str().unwrap(), tc.out.to_str().unwrap());
    let (ok, stdout, stderr) = rsat(&[
        "corpus",
        dir,
        "--mode",
        "reduce",
        "--registers",
        "2",
        "--timeout-ms",
        "0",
        "--out",
        out,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("2 files, 0 analyzed, 2 failed"), "{stdout}");
    let json = std::fs::read_to_string(tc.out.join("corpus.json")).unwrap();
    let summary = serde_json::from_str(&json).unwrap();
    let files = summary.get("files").and_then(|f| f.as_array()).unwrap();
    assert_eq!(files.len(), 2, "{json}");
    for file in files {
        let code = file.get("error").and_then(|e| e.get("code"));
        assert_eq!(code.and_then(|c| c.as_str()), Some("timeout"), "{json}");
        assert!(file.get("ops").and_then(|o| o.as_u64()) > Some(0), "{json}");
        let types = file.get("types").and_then(|t| t.as_array()).unwrap();
        let float = types
            .iter()
            .find(|t| t.get("reg_type").and_then(|r| r.as_str()) == Some("float"))
            .expect("a float type");
        let fits = float.get("reduce").and_then(|r| r.get("fits"));
        assert_eq!(fits.and_then(|f| f.as_bool()), Some(false), "{json}");
    }
}

/// The request a corpus run applies to every file.
fn request(op: RsOp, registers: Option<usize>, ilp: bool) -> RsRequest {
    let mut req = RsRequest::new(op, "");
    req.registers = registers;
    req.ilp = ilp;
    req.cache = false;
    req
}

#[test]
fn jobs_one_and_four_summaries_agree() {
    // library-level check on the shipped fixtures across all three modes
    for (op, registers) in [
        (RsOp::Analyze, None),
        (RsOp::Reduce, Some(3)),
        (RsOp::Pipeline, Some(3)),
    ] {
        let req = request(op, registers, false);
        let run = |jobs| {
            let opts = CorpusOptions {
                jobs,
                ..Default::default()
            };
            run_corpus(Path::new(&fixtures()), &req, &opts).unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.file_count, four.file_count);
        assert_eq!(one.failed, four.failed);
        for (a, b) in one.files.iter().zip(&four.files) {
            assert_eq!(a.deterministic_view(), b.deterministic_view(), "{op:?}");
        }
    }
}

#[test]
fn pipeline_mode_reports_reductions() {
    let tc = TempCorpus::new("pipeline");
    let dir = tc.dir.to_str().unwrap();
    let out = tc.out.to_str().unwrap();
    let (ok, stdout, stderr) = rsat(&[
        "corpus",
        dir,
        "--mode",
        "pipeline",
        "--registers",
        "3",
        "--out",
        out,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("budget 3"), "{stdout}");
    // expr needs one serialization arc to fit 3 registers
    assert!(stdout.contains("RS* = 4 -> 3"), "{stdout}");
}

#[test]
fn corpus_entries_are_the_dispatchers_results() {
    // An `ok` entry holds the per-type results the dispatcher returns for
    // the corpus request with that file's DDG, unchanged: intLP proof
    // status, bound and error, reduction, spills and allocation alike.
    let dir = PathBuf::from(fixtures());
    for (op, registers, ilp) in [
        (RsOp::Analyze, None, true),
        (RsOp::Reduce, Some(3), false),
        (RsOp::Pipeline, Some(3), false),
    ] {
        let corpus_req = request(op, registers, ilp);
        let opts = CorpusOptions {
            jobs: 2,
            ..Default::default()
        };
        let summary = run_corpus(&dir, &corpus_req, &opts).unwrap();
        assert_eq!(summary.failed, 0, "{op:?}");
        for entry in &summary.files {
            let mut req = request(op, registers, ilp);
            req.ddg = std::fs::read_to_string(dir.join(&entry.file)).unwrap();
            let resp = Dispatcher::new().dispatch(&req);
            let expected = resp.result.expect("the fixtures analyse").types;
            assert_eq!(
                serde_json::to_string(&entry.types).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "{op:?}: {}",
                entry.file
            );
        }
    }
}

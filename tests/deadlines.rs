//! Deadlines hold in every `rsat` front end: the one-shot CLI, `corpus`
//! and `serve` each answer a `--ilp` run within a bounded slack after its
//! deadline, with the typed timeout that front end promises.
//!
//! The input is a 24-operation random DAG whose intLP runs one simplex
//! solve for tens of seconds, so only a deadline polled inside the pivot
//! loops can stop it in time. A kill guard fails a run that does not
//! answer instead of hanging the suite.

use rs_core::model::Target;
use rs_core::parse::print_ddg;
use rs_core::request::{codes, RsError, RsOp, RsRequest, RsResponse};
use rs_kernels::random::{random_ddg, RandomDagConfig};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const DEADLINE_MS: u64 = 300;

/// Deadline plus the slack a debug build needs to notice it and answer.
const ANSWER_WITHIN: Duration = Duration::from_millis(1100);

/// A run still going after this long is killed and fails the test.
const KILL_GUARD: Duration = Duration::from_secs(15);

fn stalling_ddg() -> String {
    print_ddg(&random_ddg(
        &RandomDagConfig::sized(24, 3),
        Target::superscalar(),
    ))
}

/// A per-test scratch directory holding the DAG; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn with_ddg(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rsat_deadlines_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("in")).expect("create temp dir");
        std::fs::write(dir.join("in/r24_s3.ddg"), stalling_ddg()).expect("write DAG");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `rsat args` to completion under the kill guard, timing it from
/// spawn.
fn run_guarded(args: &[&str]) -> (Duration, Output) {
    let start = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rsat");
    while child.try_wait().expect("poll rsat").is_none() {
        if start.elapsed() > KILL_GUARD {
            let _ = child.kill();
            let _ = child.wait();
            panic!("rsat {args:?} gave no answer within {KILL_GUARD:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let took = start.elapsed();
    (took, child.wait_with_output().expect("collect rsat output"))
}

#[test]
fn cli_answers_the_deadline_with_a_timeout_warning() {
    let tmp = TempDir::with_ddg("cli");
    let file = tmp.0.join("in/r24_s3.ddg");
    let ms = DEADLINE_MS.to_string();
    let (took, out) = run_guarded(&[
        "analyze",
        file.to_str().expect("utf-8 path"),
        "--type",
        "float",
        "--ilp",
        "--timeout-ms",
        &ms,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "degradation is not a failure: {stderr}"
    );
    assert!(stderr.contains("warning[timeout]"), "{stderr}");
    assert!(took < ANSWER_WITHIN, "answered after {took:?}");
}

#[test]
fn corpus_records_the_file_as_timed_out() {
    let tmp = TempDir::with_ddg("corpus");
    let ms = DEADLINE_MS.to_string();
    let out_dir = tmp.0.join("out");
    let (took, out) = run_guarded(&[
        "corpus",
        tmp.0.join("in").to_str().expect("utf-8 path"),
        "--ilp",
        "--jobs",
        "1",
        "--timeout-ms",
        &ms,
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(out_dir.join("corpus.json")).expect("corpus.json");
    let summary = serde_json::from_str(&json).expect("corpus.json parses");
    let files = summary.get("files").and_then(|f| f.as_array());
    let [file] = files.expect("a file list") else {
        panic!("one file expected: {json}");
    };
    assert_eq!(
        file.get("file").and_then(|f| f.as_str()),
        Some("r24_s3.ddg"),
        "{json}"
    );
    let code = file.get("error").and_then(|e| e.get("code"));
    assert_eq!(
        code.and_then(|c| c.as_str()),
        Some(codes::TIMEOUT.as_str()),
        "{json}"
    );
    assert!(took < ANSWER_WITHIN, "answered after {took:?}");
}

#[test]
fn serve_answers_timeout_with_the_partial_result() {
    let mut req = RsRequest::new(RsOp::Analyze, stalling_ddg());
    req.reg_type = Some("float".to_string());
    req.ilp = true;
    req.cache = false;
    req.timeout_ms = Some(DEADLINE_MS);
    let line = serde_json::to_string(&req).expect("request serializes");

    let mut child = Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rsat serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut answer = String::new();
        let _ = BufReader::new(stdout).read_line(&mut answer);
        let _ = tx.send(answer);
    });
    let sent = Instant::now();
    writeln!(stdin, "{line}").expect("send request");
    stdin.flush().expect("flush request");
    let Ok(answer) = rx.recv_timeout(KILL_GUARD) else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("rsat serve gave no answer within {KILL_GUARD:?}");
    };
    let took = sent.elapsed();
    drop(stdin); // EOF shuts the daemon down
    assert!(child.wait().expect("rsat serve exits").success());
    reader.join().expect("reader thread");

    let value = serde_json::from_str(&answer).expect("one JSON answer");
    let resp = RsResponse::from_value(&value).expect("a response");
    assert!(!resp.ok, "{answer}");
    let code = resp.error.as_ref().map(RsError::code);
    assert_eq!(code, Some(codes::TIMEOUT), "{answer}");
    assert!(resp.result.is_some(), "partial result attached: {answer}");
    // The answer carries the partial result and its bound; the
    // interrupted search itself is dropped, never sent.
    assert!(
        !answer.contains("\"resume\""),
        "no search state on the wire: {answer}"
    );
    assert!(took < ANSWER_WITHIN, "answered after {took:?}");
}

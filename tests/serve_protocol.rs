//! Wire-protocol tests for the `rsat serve` request/response API: JSON
//! round-trips of the shared schema (property-based, with escape-heavy
//! strings), daemon-level fault containment, cache determinism, and the
//! stdio + Unix-socket transports driven through the real `rsat` binary.

use proptest::prelude::*;
use rs_core::request::{
    codes, CacheInfo, RsError, RsOp, RsRequest, RsResponse, RsResult, SolveResult, TypeResult,
};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Strings that stress JSON escaping and must survive a round trip intact.
fn tricky_string(seed: u64) -> String {
    const PIECES: &[&str] = &[
        "plain",
        "with \"quotes\" inside",
        "line\nbreak and\r carriage",
        "back\\slash c:\\tmp",
        "tab\there",
        "unicode ⊥ λ ≤ ∞",
        "{\"looks\":\"like json\"}",
        "",
        "control \u{1} byte",
    ];
    PIECES[(seed % PIECES.len() as u64) as usize].to_string()
}

fn request_from_seed(seed: u64) -> RsRequest {
    let op = match seed % 3 {
        0 => RsOp::Analyze,
        1 => RsOp::Reduce,
        _ => RsOp::Pipeline,
    };
    let mut req = RsRequest::new(op, format!("op a load float\n{}", tricky_string(seed)));
    req.id = (seed % 4 != 0).then(|| tricky_string(seed / 3));
    req.reg_type = (seed % 5 == 0).then(|| "float".to_string());
    req.registers = (seed % 2 == 0).then_some((seed % 7) as usize);
    req.exact = seed % 2 == 1;
    req.ilp = seed % 3 == 1;
    req.stats = seed % 5 == 1;
    req.spill = seed % 7 == 1;
    req.emit_ddg = seed % 11 == 1;
    req.threads = 1 + (seed % 4) as usize;
    req.issue = (seed % 3 == 2).then_some(4);
    req.cache = seed % 2 == 0;
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `RsRequest` → JSON → `Value` → `RsRequest` is the identity, for every
    /// field combination including escape-heavy strings, and the JSON text
    /// written straight from the request is its value tree's text.
    #[test]
    fn request_json_round_trips(seed in 0u64..1_000_000) {
        let req = request_from_seed(seed);
        let json = serde_json::to_string(&req).unwrap();
        let tree = serde::Serialize::to_value(&req);
        prop_assert_eq!(&json, &serde_json::to_string(&tree).unwrap());
        let value = serde_json::from_str(&json).unwrap();
        let back = RsRequest::from_value(&value).unwrap();
        prop_assert_eq!(back, req);
    }

    /// `RsResponse` round-trips through its wire form, success and failure
    /// shapes alike, and its compact and pretty JSON text is its value
    /// tree's text.
    #[test]
    fn response_json_round_trips(seed in 0u64..1_000_000) {
        let cache = CacheInfo {
            hit: seed % 2 == 0,
            hits: seed % 13,
            misses: seed % 17,
        };
        let resp = if seed % 3 == 0 {
            RsResponse::failure(
                Some(tricky_string(seed)),
                RsError::new(codes::PARSE, tricky_string(seed / 2)),
                cache,
                0.25,
            )
        } else {
            let result = RsResult {
                ops: (seed % 40) as usize,
                edges: (seed % 60) as usize,
                critical_path: (seed % 100) as i64,
                types: vec![TypeResult {
                    reg_type: "float".to_string(),
                    values: 3,
                    saturation: (seed % 8) as usize,
                    saturating: vec![tricky_string(seed), tricky_string(seed + 1)],
                    optimal: seed % 2 == 1,
                    exact: (seed % 4 == 0).then_some(SolveResult {
                        saturation: 3,
                        proven_optimal: true,
                        bound: (seed % 8 == 4).then_some(5),
                    }),
                    ilp: None,
                    ilp_stats: None,
                    ilp_error: (seed % 5 == 0)
                        .then(|| RsError::new(codes::ENGINE, tricky_string(seed / 5))),
                    reduce: None,
                    alloc: None,
                }],
                makespan: (seed % 2 == 0).then_some((seed % 50) as i64),
                ddg_out: (seed % 3 == 1).then(|| tricky_string(seed / 7)),
            };
            RsResponse::success(Some(tricky_string(seed)), result, cache, 1.5)
        };
        let json = serde_json::to_string(&resp).unwrap();
        let tree = serde::Serialize::to_value(&resp);
        prop_assert_eq!(&json, &serde_json::to_string(&tree).unwrap());
        prop_assert_eq!(
            serde_json::to_string_pretty(&resp).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        let value = serde_json::from_str(&json).unwrap();
        let back = RsResponse::from_value(&value).unwrap();
        prop_assert_eq!(back, resp);
    }
}

// ---- Fuzzing the request decoder: whatever a line holds, `process_line`
// answers it with one response line. The vendored proptest cannot shrink,
// so inputs stay small.

/// Characters of the first fuzzer: JSON punctuation and escapes, hex
/// digits, number characters, the letters of `true` and `null`, a space,
/// and multi-byte and control characters.
const FUZZ_CHARS: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', 'u', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
    'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B', 'C', 'D', 'E', 'F', '+', '-', '.', 't', 'r', 'n', 'l',
    ' ', 'é', '🦀', '\u{1}',
];

/// Sends `line` through a dispatcher and checks its answer: one line that
/// re-parses into the same response, `ok:true` or a typed error (a
/// response naming a code outside `codes` does not deserialize).
fn answers_one_typed_line(d: &mut rs_serve::Dispatcher, line: &str) -> TestCaseResult {
    let (resp, json) = rs_serve::process_line(d, line);
    prop_assert!(!json.contains('\n'), "{line:?} answered {json:?}");
    let value = serde_json::from_str(&json)
        .map_err(|e| TestCaseError::fail(format!("{line:?} answered {json:?}: {e}")))?;
    let back = RsResponse::from_value(&value)
        .map_err(|e| TestCaseError::fail(format!("{line:?} answered {json:?}: {e}")))?;
    prop_assert_eq!(&back, &resp, "{:?} answered {:?}", line, json);
    prop_assert!(
        resp.ok == resp.error.is_none(),
        "{line:?} answered {json:?}"
    );
    Ok(())
}

/// A valid request line with an escape-heavy id, for the cut and
/// one-char-replaced variants.
fn valid_line(seed: u64) -> String {
    let ddg = "op a load float\nop s store none\nflow a s 4 float\n";
    let op = [RsOp::Analyze, RsOp::Reduce, RsOp::Pipeline][(seed % 3) as usize];
    let mut req = RsRequest::new(op, ddg);
    req.id = Some(format!("q\"\\\u{1}é🦀{}", tricky_string(seed)));
    req.registers = (op != RsOp::Analyze).then_some(1 + (seed % 3) as usize);
    serde_json::to_string(&req).unwrap()
}

/// DDG text of a few lines, each an `op`, `flow`, `serial` or `target`
/// line with arguments drawn from valid and invalid words, or words alone.
fn arbitrary_ddg(words: &[usize]) -> String {
    const NAMES: &[&str] = &["a", "b", "s", "⊥", "é"];
    const CLASSES: &[&str] = &["load", "store", "falu", "fmul", "ialu", "copy", "jump"];
    const TYPES: &[&str] = &[
        "float",
        "int",
        "branch",
        "none",
        "int,float",
        "float,float",
        "t9",
    ];
    const LATENCIES: &[&str] = &["0", "1", "4", "-3", "2147483647", "-2147483648", "9e9", "x"];
    const WORDS: &[&str] = &[
        "op", "flow", "serial", "target", "vliw", "#", "\t", "", "🦀",
    ];
    let mut words = words.iter().copied();
    let mut draw = |from: &[&'static str]| from[words.next().unwrap_or(0) % from.len()];
    let mut text = String::new();
    for _ in 0..draw(&["1", "2", "3", "4", "5", "6"]).parse().unwrap() {
        let line = match draw(&[
            "op", "op", "op", "flow", "flow", "serial", "target", "words",
        ]) {
            "op" => format!("op {} {} {}", draw(NAMES), draw(CLASSES), draw(TYPES)),
            "flow" => format!(
                "flow {} {} {} {}",
                draw(NAMES),
                draw(NAMES),
                draw(LATENCIES),
                draw(TYPES)
            ),
            "serial" => format!("serial {} {} {}", draw(NAMES), draw(NAMES), draw(LATENCIES)),
            "target" => format!("target {}", draw(&["superscalar", "vliw", "risc"])),
            _ => format!("{} {}", draw(WORDS), draw(WORDS)),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short strings over a JSON-heavy alphabet.
    #[test]
    fn decoder_answers_arbitrary_text(
        chars in proptest::collection::vec(0..FUZZ_CHARS.len(), 0..65),
    ) {
        let line: String = chars.iter().map(|&i| FUZZ_CHARS[i]).collect();
        answers_one_typed_line(&mut rs_serve::Dispatcher::new(), &line)?;
    }

    /// A valid request line cut at every char boundary, and with one char
    /// replaced.
    #[test]
    fn decoder_answers_damaged_requests(
        seed in 0u64..1_000_000,
        at in 0usize..1_000,
        with in 0..FUZZ_CHARS.len(),
    ) {
        let line = valid_line(seed);
        let mut d = rs_serve::Dispatcher::new();
        for cut in (0..=line.len()).filter(|&i| line.is_char_boundary(i)) {
            answers_one_typed_line(&mut d, &line[..cut])?;
        }
        let (pos, old) = line.char_indices().nth(at % line.chars().count()).unwrap();
        let mut replaced = line.clone();
        let new = FUZZ_CHARS[with].encode_utf8(&mut [0; 4]).to_string();
        replaced.replace_range(pos..pos + old.len_utf8(), &new);
        answers_one_typed_line(&mut d, &replaced)?;
    }

    /// Valid requests whose `ddg` is arbitrary text, which drives the
    /// `.ddg` parser and, when it parses, the engine.
    #[test]
    fn decoder_answers_arbitrary_ddg_text(
        seed in 0u64..3,
        words in proptest::collection::vec(0usize..1_000, 0..40),
    ) {
        let op = [RsOp::Analyze, RsOp::Reduce, RsOp::Pipeline][seed as usize];
        let mut req = RsRequest::new(op, arbitrary_ddg(&words));
        req.registers = (op != RsOp::Analyze).then_some(2);
        let line = serde_json::to_string(&req).unwrap();
        answers_one_typed_line(&mut rs_serve::Dispatcher::new(), &line)?;
    }
}

/// A field the op would ignore (a solver field outside `analyze`, `spill`
/// outside `reduce`, `emit_ddg` on `analyze`, `issue` outside `pipeline`)
/// answers `ok:false` with code `usage` naming the field, instead of
/// `ok:true` as if it had never been sent. A budget on `analyze` stays
/// accepted: corpus batches send one in every mode.
#[test]
fn wire_rejects_solver_fields_the_op_ignores() {
    let ddg = r#""ddg":"op a load float\nop s store none\nflow a s 4 float\n""#;
    for (fields, rejected) in [
        (
            r#""op":"reduce","registers":3,"ilp":true,"exact":true"#,
            Some("`exact`"),
        ),
        (
            r#""op":"pipeline","registers":3,"stats":true"#,
            Some("`stats`"),
        ),
        (r#""op":"pipeline","registers":3,"ilp":true"#, Some("`ilp`")),
        (r#""op":"analyze","stats":true"#, Some("`ilp`")),
        (
            r#""op":"analyze","emit_ddg":true,"spill":true,"issue":8"#,
            Some("`spill`"),
        ),
        (r#""op":"analyze","emit_ddg":true"#, Some("`emit_ddg`")),
        (r#""op":"analyze","issue":8"#, Some("`issue`")),
        (
            r#""op":"pipeline","registers":2,"spill":true"#,
            Some("`spill`"),
        ),
        (r#""op":"reduce","registers":2,"issue":4"#, Some("`issue`")),
        (
            r#""op":"analyze","registers":6,"exact":true,"ilp":true,"stats":true"#,
            None,
        ),
        (
            r#""op":"reduce","registers":2,"spill":true,"emit_ddg":true"#,
            None,
        ),
        (
            r#""op":"pipeline","registers":2,"emit_ddg":true,"issue":8"#,
            None,
        ),
    ] {
        let line = format!("{{\"v\":1,{fields},{ddg}}}");
        let (resp, _) = rs_serve::process_line(&mut rs_serve::Dispatcher::new(), &line);
        let Some(named) = rejected else {
            assert!(resp.ok, "{line}: {:?}", resp.error);
            continue;
        };
        let err = resp.error.expect("rejected");
        assert!(!resp.ok && err.code() == codes::USAGE, "{line}: {err:?}");
        assert!(err.message().contains(named), "{line}: {err}");
    }
}

fn spawn_serve(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_rsat"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rsat serve")
}

fn analyze_line(ddg: &str, id: &str) -> String {
    let mut req = RsRequest::new(RsOp::Analyze, ddg);
    req.id = Some(id.to_string());
    serde_json::to_string(&req).unwrap()
}

/// Drives the real binary over stdio: a malformed line mid-stream must
/// answer `ok:false` without killing the daemon or disturbing the order or
/// content of surrounding responses.
#[test]
fn daemon_stdio_contains_malformed_requests() {
    let mut child = spawn_serve(&["--workers", "2"]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    let good = analyze_line("op a load float\nop s store none\nflow a s 4 float\n", "g");
    writeln!(stdin, "{good}").unwrap();
    writeln!(stdin, "this is not a request").unwrap();
    writeln!(stdin, "{good}").unwrap();
    drop(stdin); // EOF: daemon drains and exits
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "daemon must exit cleanly");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request line: {text}");
    let oks: Vec<bool> = lines
        .iter()
        .map(|l| {
            serde_json::from_str(l)
                .expect("response is valid JSON")
                .get("ok")
                .and_then(|v| v.as_bool())
                .expect("response has ok")
        })
        .collect();
    assert_eq!(oks, vec![true, false, true]);
}

/// The same request twice through the daemon: the second answer must come
/// from the cache and carry a bit-identical `result`, and the shutdown line
/// on stderr counts the hit and the miss.
#[test]
fn daemon_cache_hit_is_bit_identical() {
    let mut child = spawn_serve(&["--workers", "1"]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    let line = analyze_line("op a load float\nop b load float\n", "twice");
    writeln!(stdin, "{line}").unwrap();
    writeln!(stdin, "{line}").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let values: Vec<serde::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid response JSON"))
        .collect();
    assert_eq!(values.len(), 2);
    let hit_of = |v: &serde::Value| {
        v.get("cache")
            .and_then(|c| c.get("hit"))
            .and_then(|h| h.as_bool())
            .expect("cache.hit present")
    };
    assert!(!hit_of(&values[0]), "first request computes cold");
    assert!(hit_of(&values[1]), "second request hits the cache");
    let result_json = |v: &serde::Value| {
        serde_json::to_string(v.get("result").expect("ok response carries result")).unwrap()
    };
    assert_eq!(
        result_json(&values[0]),
        result_json(&values[1]),
        "cache hit must replay the cold result bit-identically"
    );
    assert_cache_counters(&out.stderr, 1, 1);
}

/// Checks the daemon's shutdown line on stderr. perfbench reads the
/// counters with `rsat serve: .* cache (\d+) hits / (\d+) misses`; the
/// line ends there.
fn assert_cache_counters(stderr: &[u8], hits: u64, misses: u64) {
    let stderr = String::from_utf8_lossy(stderr);
    let shutdown = stderr
        .lines()
        .find(|l| l.starts_with("rsat serve: ") && l.contains(" cache "))
        .unwrap_or_else(|| panic!("no shutdown line: {stderr}"));
    assert!(
        shutdown.ends_with(&format!(" cache {hits} hits / {misses} misses")),
        "shutdown line: {shutdown}"
    );
}

/// `analyze` reads no register budget, so one does not split its cache
/// entry: the same DAG with and without `"registers":6` is one miss and
/// then a hit.
#[test]
fn analyze_budget_shares_the_cache_entry() {
    let mut child = spawn_serve(&["--workers", "1"]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut req = RsRequest::new(RsOp::Analyze, "op a load float\nop b load float\n");
    writeln!(stdin, "{}", serde_json::to_string(&req).unwrap()).unwrap();
    req.registers = Some(6);
    writeln!(stdin, "{}", serde_json::to_string(&req).unwrap()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let hits: Vec<Option<bool>> = text
        .lines()
        .map(|l| {
            let v = serde_json::from_str(l).expect("valid response JSON");
            v.get("cache")
                .and_then(|c| c.get("hit"))
                .and_then(|h| h.as_bool())
        })
        .collect();
    assert_eq!(hits, [Some(false), Some(true)], "{text}");
    assert_cache_counters(&out.stderr, 1, 1);
}

/// Socket transport through the real binary: bind, connect, round-trip one
/// request, then stop via stdin EOF — the socket file must be gone after a
/// clean exit.
#[test]
fn daemon_unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("rsat-proto-test-{}.sock", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let mut child = spawn_serve(&["--workers", "1", "--socket", &path_str]);

    // The daemon binds asynchronously; retry the connect briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let client = loop {
        match UnixStream::connect(&path) {
            Ok(c) => break c,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("daemon never bound {path_str}: {e}"),
        }
    };
    let mut writer = client.try_clone().unwrap();
    writeln!(writer, "{}", analyze_line("op a load float\n", "sock")).unwrap();
    let mut reader = BufReader::new(client);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let value: serde::Value = serde_json::from_str(response.trim()).unwrap();
    assert_eq!(value.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(value.get("id").and_then(|v| v.as_str()), Some("sock"));
    drop(reader);
    drop(writer);

    drop(child.stdin.take()); // EOF on stdin stops the daemon
    let status = child.wait().expect("daemon exit");
    assert!(status.success());
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

/// A fault plan none of whose clauses can fire is dropped at the CLI: the
/// daemon starts without the chaos banner or fault probes. A live plan
/// still prints the banner, and a malformed spec is a usage error.
#[test]
fn inert_fault_spec_is_not_chaos_mode() {
    let serve_with_faults = |spec: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args(["serve", "--faults", spec])
            .stdin(Stdio::null())
            .output()
            .expect("run rsat serve");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for spec in ["panic=0", ""] {
        let (ok, stderr) = serve_with_faults(spec);
        assert!(ok, "--faults {spec:?}: {stderr}");
        assert!(
            !stderr.contains("CHAOS MODE"),
            "--faults {spec:?}: {stderr}"
        );
    }
    let (ok, stderr) = serve_with_faults("panic=2");
    assert!(ok && stderr.contains("CHAOS MODE"), "{stderr}");
    let (ok, stderr) = serve_with_faults("panic");
    assert!(!ok && stderr.contains("error[usage]"), "{stderr}");
}

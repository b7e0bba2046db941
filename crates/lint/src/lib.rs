#![forbid(unsafe_code)]
//! `rs-lint` — workspace static-analysis pass enforcing the determinism
//! and soundness invariants of the register-saturation solver stack.
//!
//! The deterministic B&B (trace digests, round-committed batches) relies
//! on invariants that the compiler cannot check: no map-iteration-order
//! or wall-clock dependence on committed paths, no raw float equality on
//! solver values, no `debug_assert!` guarding release-mode correctness,
//! no panicking paths in the serve request loop. This crate turns those
//! reviewer-memory rules into a machine-checked gate: a token-level scan
//! over the workspace with a stable rule catalog, structured JSON
//! findings, and an explicit inline allowlist so every suppression is
//! visible and justified.
//!
//! Suppression syntax (same line as the finding, or the line directly
//! above it): a line comment containing the marker `lint:allow`
//! immediately followed by a parenthesized rule ID and a mandatory
//! free-text reason. Unknown rule IDs and empty reasons are themselves
//! findings (A-01), and allows that suppress nothing are flagged as
//! stale (A-02), so the allowlist cannot rot silently.

pub mod lexer;

use lexer::{lex, test_ranges, Tok, TokKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Severity of a rule. `Warn` findings only fail the run under `--deny`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// Static metadata for one rule in the catalog.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub title: &'static str,
    /// Where the rule binds (crates / paths / non-test only).
    pub scope: &'static str,
}

/// The rule catalog. IDs are stable: tooling and allow comments refer to
/// them, so existing IDs must never be renamed or reused.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D-01",
        severity: Severity::Error,
        title: "HashMap/HashSet in deterministic-search crates: iteration \
                order is nondeterministic; use BTreeMap/Vec or justify a \
                membership-only use",
        scope: "crates/lp, crates/core, crates/graph (non-test)",
    },
    RuleInfo {
        id: "D-02",
        severity: Severity::Error,
        title: "Instant::now/SystemTime::now in solver crates: wall-clock \
                reads must never feed trace_digest or committed-node state",
        scope: "crates/lp, crates/core (non-test; crates/lp/src/cancel.rs deadline layer exempt)",
    },
    RuleInfo {
        id: "D-03",
        severity: Severity::Warn,
        title: "raw float ==/!= on solver values: use the rs_lp tolerance \
                helpers (approx_eq/approx_zero/EPS) or justify exact-bit \
                comparison",
        scope: "crates/lp, crates/core (non-test)",
    },
    RuleInfo {
        id: "D-04",
        severity: Severity::Error,
        title: "debug_assert! in solver/serve code: if the condition guards \
                release-mode correctness it must be a real check or typed \
                error; otherwise justify why debug-only is sound",
        scope: "crates/lp, crates/core, crates/serve (non-test)",
    },
    RuleInfo {
        id: "S-01",
        severity: Severity::Error,
        title: ".unwrap()/.expect() on a serve request path: the server must \
                degrade to a typed RsError, never panic",
        scope: "crates/serve (non-test)",
    },
    RuleInfo {
        id: "S-02",
        severity: Severity::Error,
        title: "RsError built with a code outside the documented vocabulary \
                (usage, io, parse, request, version, panic, engine, \
                infeasible, timeout, overloaded)",
        scope: "workspace (non-test)",
    },
    RuleInfo {
        id: "H-01",
        severity: Severity::Error,
        title: "crate root missing #![forbid(unsafe_code)]",
        scope: "every non-vendor crate root (lib.rs / main.rs / src/bin)",
    },
    RuleInfo {
        id: "H-02",
        severity: Severity::Error,
        title: "todo!/unimplemented! outside tests",
        scope: "workspace (non-test)",
    },
    RuleInfo {
        id: "A-01",
        severity: Severity::Error,
        title: "malformed allow comment: unknown rule ID, missing closing \
                paren, or missing justification",
        scope: "workspace (all code)",
    },
    RuleInfo {
        id: "A-02",
        severity: Severity::Warn,
        title: "stale allow comment: suppresses no finding on its line or \
                the line below",
        scope: "workspace (all code)",
    },
];

/// Documented `RsError` code vocabulary. Mirrors
/// `rs_core::request::codes`; rs-lint is dependency-free by design, so
/// the list is duplicated here and S-02 plus the wire tests keep the two
/// in sync.
pub const CODE_VOCAB: &[&str] = &[
    "usage",
    "io",
    "parse",
    "request",
    "version",
    "panic",
    "engine",
    "infeasible",
    "timeout",
    "overloaded",
];

/// Looks up a rule by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding: a rule violation at a specific file/line.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// One valid suppression found in the tree (valid ID + non-empty reason).
#[derive(Clone, Debug)]
pub struct Allow {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub reason: String,
    pub used: bool,
}

/// Lint result for one file.
#[derive(Debug, Default)]
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
}

/// Aggregated workspace report.
#[derive(Debug, Default)]
pub struct Report {
    pub root: String,
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Serializes the report as JSON (hand-rolled: the lint gate must not
    /// depend on anything it guards, including the vendored serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = write!(
            s,
            "  \"version\": 1,\n  \"root\": {},\n",
            json_str(&self.root)
        );
        let _ = write!(
            s,
            "  \"files_scanned\": {},\n  \"errors\": {},\n  \"warnings\": {},\n",
            self.files_scanned,
            self.errors(),
            self.warnings()
        );
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(f.rule),
                json_str(f.severity.as_str()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet)
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"used\": {}}}",
                json_str(a.rule),
                json_str(&a.file),
                a.line,
                json_str(&a.reason),
                a.used
            );
        }
        if !self.allows.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    lines: Vec<&'a str>,
    /// Per-token: inside a `#[cfg(test)]` / `#[test]` region.
    test_mask: Vec<bool>,
    /// Whole file is test/bench/example code by path.
    path_is_test: bool,
}

impl<'a> FileCtx<'a> {
    fn is_test(&self, tok_idx: usize) -> bool {
        self.path_is_test || self.test_mask.get(tok_idx).copied().unwrap_or(false)
    }

    fn crate_name(&self) -> &str {
        if let Some(rest) = self.rel.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else {
            "root"
        }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

fn path_is_test(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    segs.iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples")
}

fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" || rel == "src/main.rs" {
        return true;
    }
    if rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs") {
        return true;
    }
    // Every file under a src/bin/ directory is its own binary root.
    rel.contains("src/bin/") && rel.ends_with(".rs")
}

fn ident_at(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_at(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// Lints one file given its workspace-relative path (forward slashes)
/// and source text. Public so fixture tests can lint synthetic files.
pub fn lint_source(rel: &str, src: &str) -> FileLint {
    let lexed = lex(src);
    let ranges = test_ranges(&lexed.toks);
    let mut mask = vec![false; lexed.toks.len()];
    for &(s, e) in &ranges {
        for m in mask.iter_mut().take(e).skip(s) {
            *m = true;
        }
    }
    let ctx = FileCtx {
        rel,
        toks: &lexed.toks,
        lines: src.lines().collect(),
        test_mask: mask,
        path_is_test: path_is_test(rel),
    };

    let mut findings = Vec::new();
    rule_d01(&ctx, &mut findings);
    rule_d02(&ctx, &mut findings);
    rule_d03(&ctx, &mut findings);
    rule_d04(&ctx, &mut findings);
    rule_s01(&ctx, &mut findings);
    rule_s02(&ctx, &mut findings);
    rule_h01(&ctx, &mut findings);
    rule_h02(&ctx, &mut findings);

    // Allow comments: parse, validate (A-01), apply, flag stale (A-02).
    let mut allows: Vec<Allow> = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let after = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            findings.push(Finding {
                rule: "A-01",
                severity: Severity::Error,
                file: rel.to_string(),
                line: c.line,
                message: "malformed allow comment: missing ')'".to_string(),
                snippet: ctx.snippet(c.line),
            });
            continue;
        };
        let id = after[..close].trim();
        let reason = after[close + 1..].trim();
        let Some(info) = rule(id) else {
            findings.push(Finding {
                rule: "A-01",
                severity: Severity::Error,
                file: rel.to_string(),
                line: c.line,
                message: format!("allow names unknown rule '{id}'"),
                snippet: ctx.snippet(c.line),
            });
            continue;
        };
        if reason.is_empty() {
            findings.push(Finding {
                rule: "A-01",
                severity: Severity::Error,
                file: rel.to_string(),
                line: c.line,
                message: format!("allow for {id} has no justification"),
                snippet: ctx.snippet(c.line),
            });
            continue;
        }
        allows.push(Allow {
            rule: info.id,
            file: rel.to_string(),
            line: c.line,
            reason: reason.to_string(),
            used: false,
        });
    }

    // A finding is suppressed by an allow for its rule on the same line
    // or the line directly above. A-01/A-02 are never suppressible.
    findings.retain(|f| {
        if f.rule == "A-01" {
            return true;
        }
        for a in allows.iter_mut() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                return false;
            }
        }
        true
    });

    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: "A-02",
                severity: Severity::Warn,
                file: rel.to_string(),
                line: a.line,
                message: format!(
                    "stale allow: no {} finding on this or the next line",
                    a.rule
                ),
                snippet: ctx.snippet(a.line),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileLint { findings, allows }
}

fn push(ctx: &FileCtx, out: &mut Vec<Finding>, id: &'static str, line: u32, message: String) {
    let info = rule(id).expect("rule IDs pushed internally are always in the catalog");
    out.push(Finding {
        rule: info.id,
        severity: info.severity,
        file: ctx.rel.to_string(),
        line,
        message,
        snippet: ctx.snippet(line),
    });
}

/// D-01: HashMap/HashSet in deterministic-search crates.
fn rule_d01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(ctx.crate_name(), "lp" | "core" | "graph") {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.is_test(i)
        {
            push(
                ctx,
                out,
                "D-01",
                t.line,
                format!(
                    "{} in deterministic-search crate '{}': iteration order is \
                     nondeterministic across runs",
                    t.text,
                    ctx.crate_name()
                ),
            );
        }
    }
}

/// D-02: wall-clock reads in solver crates. The deadline layer
/// (crates/lp/src/cancel.rs) is the one sanctioned clock owner: it
/// feeds only cancellation, never the digest, and its determinism
/// contract is covered by the chaos/determinism smoke tests.
fn rule_d02(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(ctx.crate_name(), "lp" | "core") {
        return;
    }
    if ctx.rel == "crates/lp/src/cancel.rs" {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && punct_at(ctx.toks, i + 1, "::")
            && ident_at(ctx.toks, i + 2, "now")
            && !ctx.is_test(i)
        {
            push(
                ctx,
                out,
                "D-02",
                t.line,
                format!(
                    "{}::now() in solver crate '{}': wall-clock must not reach \
                     committed search state or trace_digest",
                    t.text,
                    ctx.crate_name()
                ),
            );
        }
    }
}

/// D-03: raw float equality on solver values. Flags `==`/`!=` where an
/// adjacent token is a float literal or an f32/f64 special constant.
fn rule_d03(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(ctx.crate_name(), "lp" | "core") {
        return;
    }
    let special = |t: &Tok| {
        t.kind == TokKind::Ident && matches!(t.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY")
    };
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") || ctx.is_test(i) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| ctx.toks.get(p));
        let prev_hit = prev.is_some_and(|p| p.kind == TokKind::Float || special(p));
        let next_hit = ctx.toks[i + 1..]
            .iter()
            .take(3)
            .any(|n| n.kind == TokKind::Float || special(n));
        if prev_hit || next_hit {
            push(
                ctx,
                out,
                "D-03",
                t.line,
                format!(
                    "raw float {} on a solver value: use approx_eq/approx_zero \
                     (rs_lp) or justify exact-bit comparison",
                    t.text
                ),
            );
        }
    }
}

/// D-04: debug_assert! in solver/serve code.
fn rule_d04(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(ctx.crate_name(), "lp" | "core" | "serve") {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
            )
            && punct_at(ctx.toks, i + 1, "!")
            && !ctx.is_test(i)
        {
            push(
                ctx,
                out,
                "D-04",
                t.line,
                format!(
                    "{}! compiles out in release: promote to a real check/typed \
                     error if it guards correctness, or justify debug-only",
                    t.text
                ),
            );
        }
    }
}

/// S-01: unwrap/expect on serve request paths.
fn rule_s01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.crate_name() != "serve" {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && punct_at(ctx.toks, i.wrapping_sub(1), ".")
            && punct_at(ctx.toks, i + 1, "(")
            && !ctx.is_test(i)
        {
            push(
                ctx,
                out,
                "S-01",
                t.line,
                format!(
                    ".{}() on a serve path: the request loop must degrade to a \
                     typed RsError, never panic",
                    t.text
                ),
            );
        }
    }
}

/// S-02: RsError codes must come from the documented vocabulary. Checks
/// `RsError::new(<literal or codes::CONST>, ..)`; dynamic expressions
/// are out of reach for a token-level pass and are left to the wire
/// round-trip tests.
fn rule_s02(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident
            && t.text == "RsError"
            && punct_at(ctx.toks, i + 1, "::")
            && ident_at(ctx.toks, i + 2, "new")
            && punct_at(ctx.toks, i + 3, "(")
            && !ctx.is_test(i))
        {
            continue;
        }
        let arg = ctx.toks.get(i + 4);
        let bad: Option<String> = match arg {
            Some(a) if a.kind == TokKind::Str => {
                if CODE_VOCAB.contains(&a.text.as_str()) {
                    None
                } else {
                    Some(a.text.clone())
                }
            }
            Some(a) if a.kind == TokKind::Ident && a.text == "codes" => {
                if punct_at(ctx.toks, i + 5, "::") {
                    match ctx.toks.get(i + 6) {
                        Some(c) if c.kind == TokKind::Ident => {
                            let lower = c.text.to_lowercase();
                            if CODE_VOCAB.contains(&lower.as_str()) {
                                None
                            } else {
                                Some(c.text.clone())
                            }
                        }
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(code) = bad {
            push(
                ctx,
                out,
                "S-02",
                t.line,
                format!("RsError code '{code}' is not in the documented vocabulary"),
            );
        }
    }
}

/// H-01: crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_h01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !is_crate_root(ctx.rel) {
        return;
    }
    let toks = ctx.toks;
    let found = (0..toks.len()).any(|i| {
        punct_at(toks, i, "#")
            && punct_at(toks, i + 1, "!")
            && punct_at(toks, i + 2, "[")
            && ident_at(toks, i + 3, "forbid")
            && punct_at(toks, i + 4, "(")
            && ident_at(toks, i + 5, "unsafe_code")
    });
    if !found {
        push(
            ctx,
            out,
            "H-01",
            1,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        );
    }
}

/// H-02: todo!/unimplemented! outside tests.
fn rule_h02(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "todo" || t.text == "unimplemented")
            && punct_at(ctx.toks, i + 1, "!")
            && !ctx.is_test(i)
        {
            push(
                ctx,
                out,
                "H-02",
                t.line,
                format!("{}! in non-test code", t.text),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Directories never scanned: vendored third-party code, build output,
/// VCS metadata, run artifacts, and the lint fixtures (which are
/// deliberately rule-violating).
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "vendor" | "target" | ".git" | "results") || rel == "crates/lint/tests/fixtures"
}

/// Recursively collects workspace `.rs` files (workspace-relative,
/// forward-slash paths) in deterministic sorted order.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let mut entries: Vec<(String, bool)> = Vec::new();
        for entry in std::fs::read_dir(&abs)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_dir = entry.file_type()?.is_dir();
            entries.push((name, is_dir));
        }
        entries.sort();
        // Reverse so the stack pops in sorted order.
        for (name, is_dir) in entries.into_iter().rev() {
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if is_dir {
                if !skip_dir(&rel_str) {
                    stack.push(rel);
                }
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans the workspace rooted at `root` and aggregates all findings.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = collect_files(root)?;
    let mut report = Report {
        root: root.to_string_lossy().into_owned(),
        ..Report::default()
    };
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let mut fl = lint_source(&rel_str, &src);
        report.findings.append(&mut fl.findings);
        report.allows.append(&mut fl.allows);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(rel, src)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d01_only_fires_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        assert_eq!(ids("crates/lp/src/x.rs", src), [("D-01", 1), ("D-01", 2)]);
        assert!(ids("crates/serve/src/x.rs", src).is_empty());
        assert!(ids("crates/lp/tests/x.rs", src).is_empty());
    }

    #[test]
    fn d02_exempts_cancel_rs() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(ids("crates/lp/src/milp.rs", src), [("D-02", 1)]);
        assert!(ids("crates/lp/src/cancel.rs", src).is_empty());
    }

    #[test]
    fn d03_needs_float_adjacency() {
        let src = "fn f(x: f64, n: usize) -> bool { x == 0.0 && n == 3 }\n";
        assert_eq!(ids("crates/lp/src/x.rs", src), [("D-03", 1)]);
        let neg = "fn g(x: f64) -> bool { x == f64::NEG_INFINITY }\n";
        assert_eq!(ids("crates/core/src/x.rs", neg), [("D-03", 1)]);
    }

    #[test]
    fn s01_ignores_unwrap_or_else() {
        let src = "fn f(g: std::sync::MutexGuard<u32>) {}\nfn h(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert!(ids("crates/serve/src/x.rs", src).is_empty());
        let bad = "fn h(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
        assert_eq!(ids("crates/serve/src/x.rs", bad), [("S-01", 1)]);
    }

    #[test]
    fn s02_checks_literal_and_codes_path() {
        let ok = "fn f() { let _ = RsError::new(\"engine\", \"x\"); let _ = RsError::new(codes::TIMEOUT, \"y\"); }\n";
        assert!(ids("crates/serve/src/x.rs", ok).is_empty());
        let bad = "fn f() { let _ = RsError::new(\"wat\", \"x\"); }\n";
        assert_eq!(ids("crates/serve/src/x.rs", bad), [("S-02", 1)]);
    }

    #[test]
    fn h01_detects_missing_and_present() {
        assert_eq!(
            ids("crates/lp/src/lib.rs", "pub fn f() {}\n"),
            [("H-01", 1)]
        );
        assert!(ids(
            "crates/lp/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        // Non-root files don't need the attribute.
        assert!(ids("crates/lp/src/milp.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let above = "fn f() { // comment\n    // lint:al\u{6c}ow(D-04) proven cheap invariant\n    debug_assert!(true);\n}\n";
        let fl = lint_source("crates/lp/src/x.rs", above);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
        assert_eq!(fl.allows.len(), 1);
        assert!(fl.allows[0].used);
    }

    #[test]
    fn allow_without_reason_is_a01() {
        let src = "// lint:al\u{6c}ow(D-04)\ndebug_assert!(true);\n";
        let found = ids("crates/lp/src/x.rs", src);
        assert!(found.contains(&("A-01", 1)), "{found:?}");
        assert!(found.contains(&("D-04", 2)), "{found:?}");
    }

    #[test]
    fn stale_allow_is_a02() {
        let src = "// lint:al\u{6c}ow(D-04) nothing here actually\nfn f() {}\n";
        assert_eq!(ids("crates/lp/src/x.rs", src), [("A-02", 1)]);
    }

    #[test]
    fn json_report_escapes() {
        let report = Report {
            root: "r\"s".to_string(),
            files_scanned: 1,
            findings: vec![],
            allows: vec![],
        };
        let j = report.to_json();
        assert!(j.contains("\"r\\\"s\""));
        assert!(j.contains("\"findings\": []"));
    }
}

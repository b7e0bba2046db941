//! The parallel corpus driver behind `rsat corpus <dir>`: walk a directory
//! of `.ddg` files and apply one [`RsRequest`] to each of them through the
//! same [`Dispatcher`] that powers `rsat serve` and the one-shot
//! subcommands — one dispatcher (and therefore one warm
//! [`rs_core::engine::RsEngine`]) per worker thread — then fold the
//! [`rs_core::request::RsResponse`]s into a JSON-serializable summary
//! whose per-type entries are the dispatcher's own [`TypeResult`]s, proof
//! status and all. The corpus runner is a batch *client* of the service
//! dispatch path, not a third execution stack: the request is validated
//! once, before the directory is read, and each file's request is a clone
//! of it carrying that file's DDG.
//!
//! Error containment is per file: a malformed `.ddg` becomes an `ok: false`
//! entry carrying the structured [`RsError`] and the run continues.
//! Summaries are deterministic in everything except wall-clock fields,
//! independent of `jobs` (asserted by `tests/corpus_cli.rs`).

use crate::dispatch::Dispatcher;
use crate::lock_recover;
use rs_core::par_map;
use rs_core::request::{codes, RsError, RsRequest, TypeResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// How a corpus run is carried out; what runs per file is its request.
#[derive(Clone, Debug, Default)]
pub struct CorpusOptions {
    /// Worker threads (clamped to ≥ 1, so the default 0 runs one).
    pub jobs: usize,
    /// Periodic run checkpoint file. Completed per-file entries are
    /// rewritten here (atomically, tmp + rename) after every file, and a
    /// rerun pointed at the same path with the same request skips files
    /// it already covers — a corpus run killed mid-way resumes instead of
    /// restarting. Removed on successful completion.
    pub resume_path: Option<PathBuf>,
}

/// The settings that decide each file's entry, as recorded in a
/// [`CorpusOptions::resume_path`] checkpoint: the request every file
/// runs. Entries computed under another request are never restored.
fn per_file_settings(request: &RsRequest) -> String {
    format!("{request:?}")
}

/// Outcome of one corpus file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusFileSummary {
    /// File name relative to the corpus directory.
    pub file: String,
    /// Whether the file parsed and analysed.
    pub ok: bool,
    /// Structured error (shared `{code, message}` shape) when `ok` is false.
    /// A `timeout` entry still carries its best partial result in the
    /// fields below, as the dispatcher answered it.
    pub error: Option<RsError>,
    /// Operation count (incl. ⊥); 0 when the file failed to parse.
    pub ops: usize,
    /// Edge count.
    pub edges: usize,
    /// Critical path length.
    pub critical_path: i64,
    /// List-schedule makespan (pipeline mode with every budget met).
    pub makespan: Option<i64>,
    /// Per-type results exactly as the dispatcher returned them, ascending
    /// register type (in reduce/pipeline modes `saturation` is the
    /// estimate immediately before that type's reduction).
    pub types: Vec<TypeResult>,
    /// Wall-clock milliseconds spent on this file (excluded from the
    /// `jobs`-independence guarantee).
    pub millis: f64,
}

impl CorpusFileSummary {
    /// The `jobs`-independent content of this entry (everything except
    /// timing) — what `--jobs 1` and `--jobs N` runs must agree on.
    #[expect(
        clippy::type_complexity,
        reason = "a borrowed tuple of the entry's fields, compared and never stored"
    )]
    pub fn deterministic_view(
        &self,
    ) -> (
        &str,
        bool,
        &Option<RsError>,
        usize,
        usize,
        i64,
        Option<i64>,
        &[TypeResult],
    ) {
        (
            &self.file,
            self.ok,
            &self.error,
            self.ops,
            self.edges,
            self.critical_path,
            self.makespan,
            &self.types,
        )
    }
}

/// Summary of a whole corpus run.
#[derive(Clone, Debug, Serialize)]
pub struct CorpusSummary {
    /// Corpus directory as given.
    pub dir: String,
    /// Worker threads used.
    pub jobs: usize,
    /// The request's op (`"analyze"`, `"reduce"`, `"pipeline"`).
    pub mode: String,
    /// Files discovered.
    pub file_count: usize,
    /// Files analysed successfully.
    pub analyzed: usize,
    /// Files skipped with an error entry.
    pub failed: usize,
    /// Files restored from a [`CorpusOptions::resume_path`] checkpoint
    /// of an earlier, interrupted run (their entries appear in `files`
    /// like any other, but were not re-analysed).
    pub restored: usize,
    /// Total wall-clock milliseconds of the parallel region.
    pub total_millis: f64,
    /// Per-file entries, sorted by file name.
    pub files: Vec<CorpusFileSummary>,
}

/// Applies `request` to every `.ddg` file under `dir` (its `ddg` field is
/// replaced by each file's text). Returns an error only when the run
/// itself fails — an invalid request, checked before the directory is
/// read; an unreadable directory; no `.ddg` files — while malformed corpus
/// files are contained as `ok: false` entries.
pub fn run_corpus(
    dir: &Path,
    request: &RsRequest,
    opts: &CorpusOptions,
) -> Result<CorpusSummary, RsError> {
    request.validate()?;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| {
            RsError::new(
                codes::IO,
                format!("cannot read directory {}: {e}", dir.display()),
            )
        })?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.is_file() && path.extension().is_some_and(|x| x == "ddg")).then_some(path)
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(RsError::usage(format!(
            "no .ddg files in {}",
            dir.display()
        )));
    }

    let jobs = opts.jobs.clamp(1, paths.len());
    let settings = per_file_settings(request);

    // A rerun pointed at the same `--resume` file restores the entries an
    // earlier (killed) run already completed; only the other files are
    // run, so the final summary covers every file exactly once.
    let mut prior = match &opts.resume_path {
        Some(rp) => load_resume(rp, &settings),
        None => HashMap::new(),
    };
    let slots: Vec<Option<CorpusFileSummary>> = paths
        .iter()
        .map(|path| prior.remove(&file_name(dir, path)))
        .collect();
    let pending: Vec<&PathBuf> = paths
        .iter()
        .zip(&slots)
        .filter_map(|(path, slot)| slot.is_none().then_some(path))
        .collect();
    let restored = paths.len() - pending.len();
    // Every completed entry, rewritten to the checkpoint after each file.
    let checkpoint = Mutex::new(slots.iter().flatten().cloned().collect::<Vec<_>>());

    let start = Instant::now();
    // One dispatcher per worker: a private warm engine across files, the
    // same execution path as `rsat serve` (cache-less — every corpus file
    // is distinct work).
    let mut dispatchers: Vec<Dispatcher> = (0..jobs).map(|_| Dispatcher::new()).collect();
    let fresh = par_map(&mut dispatchers, pending, |dispatcher, path| {
        let summary = run_file(dispatcher, dir, path, request);
        if let Some(rp) = &opts.resume_path {
            // Rewrite the whole checkpoint after each file (atomic: tmp +
            // rename). Corpora are small; the simplicity is worth the
            // quadratic rewrites.
            let mut done = lock_recover(&checkpoint);
            done.push(summary.clone());
            save_resume(rp, &settings, &done);
        }
        summary
    });
    let total_millis = start.elapsed().as_secs_f64() * 1e3;

    let mut fresh = fresh.into_iter();
    let files: Vec<CorpusFileSummary> = slots
        .into_iter()
        .filter_map(|slot| slot.or_else(|| fresh.next()))
        .collect();
    if let Some(rp) = &opts.resume_path {
        // The run covered everything: a later rerun should start fresh.
        let _ = std::fs::remove_file(rp);
    }
    let analyzed = files.iter().filter(|f| f.ok).count();
    Ok(CorpusSummary {
        dir: dir.display().to_string(),
        jobs,
        mode: request.op.name().to_string(),
        file_count: files.len(),
        analyzed,
        failed: files.len() - analyzed,
        restored,
        total_millis,
        files,
    })
}

/// On-disk shape of a `--resume` run checkpoint.
#[derive(Serialize, Deserialize)]
struct ResumeFile {
    version: u32,
    /// `per_file_settings` of the run that wrote it.
    settings: String,
    files: Vec<CorpusFileSummary>,
}

/// Bumped whenever the file's shape or key changes: a file written by
/// another version is ignored, so the rerun starts cold.
const RESUME_VERSION: u32 = 4;

/// Loads a run checkpoint, keyed by file name. Unreadable, malformed, or
/// mismatched (different settings/version) checkpoints are ignored — the
/// run simply starts cold.
fn load_resume(path: &Path, settings: &str) -> HashMap<String, CorpusFileSummary> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return HashMap::new();
    };
    let parsed = serde_json::from_str(&text)
        .ok()
        .and_then(|v| ResumeFile::from_value(&v).ok());
    match parsed {
        Some(r) if r.version == RESUME_VERSION && r.settings == settings => {
            r.files.into_iter().map(|f| (f.file.clone(), f)).collect()
        }
        _ => HashMap::new(),
    }
}

/// Atomically rewrites the run checkpoint (tmp + rename), so a kill at
/// any instant leaves either the old or the new checkpoint, never a torn
/// one. Best-effort: IO errors are swallowed (checkpointing must never
/// fail the run it protects).
fn save_resume(path: &Path, settings: &str, files: &[CorpusFileSummary]) {
    let snapshot = ResumeFile {
        version: RESUME_VERSION,
        settings: settings.to_string(),
        files: files.to_vec(),
    };
    let Ok(json) = serde_json::to_string(&snapshot) else {
        return;
    };
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, json).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// A corpus file's name relative to the corpus directory: its entry's
/// `file` and its key in a resume checkpoint.
fn file_name(dir: &Path, path: &Path) -> String {
    path.strip_prefix(dir).unwrap_or(path).display().to_string()
}

fn run_file(
    dispatcher: &mut Dispatcher,
    dir: &Path,
    path: &Path,
    request: &RsRequest,
) -> CorpusFileSummary {
    let name = file_name(dir, path);
    let start = Instant::now();
    let fail = |error: RsError| CorpusFileSummary {
        file: name.clone(),
        ok: false,
        error: Some(error),
        ops: 0,
        edges: 0,
        critical_path: 0,
        makespan: None,
        types: Vec::new(),
        millis: start.elapsed().as_secs_f64() * 1e3,
    };

    let mut req = request.clone();
    req.ddg = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(RsError::new(codes::IO, format!("cannot read: {e}"))),
    };
    let resp = dispatcher.dispatch(&req);
    // A timed-out response fails yet carries its best partial result,
    // which the entry keeps next to the error.
    let missing = || RsError::new(codes::ENGINE, "missing error detail");
    let error = (!resp.ok).then(|| resp.error.unwrap_or_else(missing));
    let Some(result) = resp.result else {
        return fail(error.unwrap_or_else(missing));
    };
    CorpusFileSummary {
        file: name,
        ok: error.is_none(),
        error,
        ops: result.ops,
        edges: result.edges,
        critical_path: result.critical_path,
        makespan: result.makespan,
        types: result.types,
        millis: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Renders the human-readable run summary printed by `rsat corpus` and
/// stored as the `.txt` sidecar.
pub fn render_text(summary: &CorpusSummary) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus {}: {} files, {} analyzed, {} failed, jobs {}, mode {}, {:.1} ms",
        summary.dir,
        summary.file_count,
        summary.analyzed,
        summary.failed,
        summary.jobs,
        summary.mode,
        summary.total_millis
    );
    for f in &summary.files {
        if f.ok {
            let types: Vec<String> = f
                .types
                .iter()
                .map(|t| {
                    let mut s = format!("{}: RS* = {}", t.reg_type, t.saturation);
                    if let Some(r) = &t.reduce {
                        let _ = write!(
                            s,
                            " -> {} (budget {}, +{} arcs{})",
                            r.rs_after,
                            r.budget,
                            r.arcs_added,
                            if r.fits { "" } else { ", INFEASIBLE" }
                        );
                    }
                    s
                })
                .collect();
            let _ = writeln!(
                out,
                "  {}: {} ops, {} edges, cp {} | {}",
                f.file,
                f.ops,
                f.edges,
                f.critical_path,
                types.join("; ")
            );
        } else {
            let _ = writeln!(
                out,
                "  {}: SKIPPED ({})",
                f.file,
                f.error.as_ref().map_or("unknown error", |e| e.message())
            );
        }
    }
    out
}

/// Writes a report as `<name>.txt` (the text) and `<name>.json` (the
/// data, pretty-printed) under `dir`, creating the directory. A path that
/// cannot be created or written answers code `io` naming it.
pub fn write_report<S: Serialize>(
    dir: &Path,
    name: &str,
    text: &str,
    data: &S,
) -> Result<(), RsError> {
    let io = |path: &Path, e: std::io::Error| {
        RsError::new(codes::IO, format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    let txt_path = dir.join(format!("{name}.txt"));
    std::fs::write(&txt_path, text).map_err(|e| io(&txt_path, e))?;
    let json_path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(data)
        .map_err(|e| RsError::new(codes::IO, format!("cannot serialize {name}: {e}")))?;
    std::fs::write(&json_path, json).map_err(|e| io(&json_path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_core::request::RsOp;

    fn fixture_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data"))
    }

    fn request(op: RsOp, registers: Option<usize>) -> RsRequest {
        let mut req = RsRequest::new(op, "");
        req.registers = registers;
        req
    }

    fn analyze() -> RsRequest {
        request(RsOp::Analyze, None)
    }

    fn error_message(f: &CorpusFileSummary) -> &str {
        f.error
            .as_ref()
            .expect("failed entry has an error")
            .message()
    }

    #[test]
    fn runs_shipped_fixtures() {
        let summary = run_corpus(&fixture_dir(), &analyze(), &CorpusOptions::default()).unwrap();
        assert!(summary.file_count >= 2);
        assert_eq!(summary.failed, 0);
        assert!(summary.files.iter().all(|f| f.ok && !f.types.is_empty()));
        // sorted by name
        let names: Vec<_> = summary.files.iter().map(|f| f.file.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn jobs_do_not_change_the_analysis() {
        let reduce = request(RsOp::Reduce, Some(3));
        let one = run_corpus(
            &fixture_dir(),
            &reduce,
            &CorpusOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let four = run_corpus(
            &fixture_dir(),
            &reduce,
            &CorpusOptions {
                jobs: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(one.file_count, four.file_count);
        for (a, b) in one.files.iter().zip(&four.files) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
    }

    #[test]
    fn malformed_file_is_contained() {
        let dir = std::env::temp_dir().join("rsat_corpus_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.ddg"), "op a load float\n").unwrap();
        std::fs::write(
            dir.join("bad.ddg"),
            "op a load float\nflow a ghost 1 float\n",
        )
        .unwrap();
        let summary = run_corpus(&dir, &analyze(), &CorpusOptions::default()).unwrap();
        assert_eq!(summary.file_count, 2);
        assert_eq!(summary.analyzed, 1);
        assert_eq!(summary.failed, 1);
        let bad = summary.files.iter().find(|f| f.file == "bad.ddg").unwrap();
        assert!(!bad.ok);
        assert_eq!(bad.error.as_ref().unwrap().code(), codes::PARSE);
        assert!(error_message(bad).contains("line 2"), "{:?}", bad.error);
        let text = render_text(&summary);
        assert!(text.contains("SKIPPED"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cyclic_and_self_loop_files_are_contained() {
        // builder-level model violations must surface as parse errors, not
        // worker panics that abort the whole run
        let dir = std::env::temp_dir().join("rsat_corpus_cyclic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.ddg"), "op a load float\n").unwrap();
        std::fs::write(
            dir.join("cycle.ddg"),
            "op a load float\nop b store none\nserial a b 1\nserial b a 1\n",
        )
        .unwrap();
        std::fs::write(dir.join("selfloop.ddg"), "op a load float\nserial a a 1\n").unwrap();
        std::fs::write(
            dir.join("vliw_lat.ddg"),
            "target vliw\nop a load float\nop b store none\nflow a b 0 float\n",
        )
        .unwrap();
        let summary = run_corpus(
            &dir,
            &analyze(),
            &CorpusOptions {
                jobs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(summary.file_count, 4);
        assert_eq!(summary.analyzed, 1);
        assert_eq!(summary.failed, 3);
        let by_name = |n: &str| summary.files.iter().find(|f| f.file == n).unwrap();
        assert!(error_message(by_name("cycle.ddg")).contains("cycle"));
        assert!(error_message(by_name("selfloop.ddg")).contains("self-loop"));
        assert!(error_message(by_name("vliw_lat.ddg")).contains("latency"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduce_mode_skips_duplicate_analysis_but_reports_saturation() {
        let summary = run_corpus(
            &fixture_dir(),
            &request(RsOp::Reduce, Some(3)),
            &CorpusOptions::default(),
        )
        .unwrap();
        let expr = summary.files.iter().find(|f| f.file == "expr.ddg").unwrap();
        let float = expr.types.iter().find(|t| t.reg_type == "float").unwrap();
        assert_eq!(float.saturation, 4);
        let r = float.reduce.as_ref().unwrap();
        assert!(r.fits && r.rs_after <= 3 && r.arcs_added >= 1);
    }

    #[test]
    fn pipeline_mode_reports_makespan() {
        let summary = run_corpus(
            &fixture_dir(),
            &request(RsOp::Pipeline, Some(4)),
            &CorpusOptions::default(),
        )
        .unwrap();
        let daxpy = summary
            .files
            .iter()
            .find(|f| f.file == "daxpy.ddg")
            .unwrap();
        assert!(daxpy.ok);
        assert!(
            daxpy.makespan.is_some(),
            "pipeline mode surfaces the schedule makespan"
        );
    }

    #[test]
    fn killed_run_resumes_from_checkpoint_file() {
        let dir = std::env::temp_dir().join("rsat_corpus_resume_file");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.ddg"), "op a load float\n").unwrap();
        std::fs::write(dir.join("b.ddg"), "op b load float\n").unwrap();
        let resume = dir.join("resume.json");
        let opts = CorpusOptions {
            resume_path: Some(resume.clone()),
            ..Default::default()
        };
        let full = run_corpus(&dir, &analyze(), &opts).unwrap();
        assert_eq!(full.restored, 0);
        assert!(!resume.exists(), "completed run removes its checkpoint");

        // Simulate a run killed after a.ddg: a checkpoint holding only
        // a's entry. The rerun restores it and analyses only b.ddg.
        let partial = ResumeFile {
            version: RESUME_VERSION,
            settings: per_file_settings(&analyze()),
            files: vec![full.files[0].clone()],
        };
        std::fs::write(&resume, serde_json::to_string(&partial).unwrap()).unwrap();
        let rerun = run_corpus(&dir, &analyze(), &opts).unwrap();
        assert_eq!(rerun.restored, 1);
        assert_eq!(rerun.file_count, 2, "every file covered exactly once");
        for (a, b) in full.files.iter().zip(&rerun.files) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
        assert!(!resume.exists(), "rerun completed and cleaned up");

        // A checkpoint written under another request — another op,
        // another register budget, the intLP switched on — is ignored,
        // not trusted.
        let reduce = |registers| request(RsOp::Reduce, Some(registers));
        let with_ilp = RsRequest {
            ilp: true,
            ..analyze()
        };
        for (writer, reader, restored) in [
            (reduce(2), reduce(2), 1),
            (reduce(2), reduce(3), 0),
            (reduce(3), analyze(), 0),
            (with_ilp, analyze(), 0),
        ] {
            let written = ResumeFile {
                version: RESUME_VERSION,
                settings: per_file_settings(&writer),
                files: vec![full.files[0].clone()],
            };
            std::fs::write(&resume, serde_json::to_string(&written).unwrap()).unwrap();
            let run = run_corpus(&dir, &reader, &opts).unwrap();
            assert_eq!(
                run.restored,
                restored,
                "written under {}, read under {}",
                per_file_settings(&writer),
                per_file_settings(&reader)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_a_driver_error() {
        let dir = std::env::temp_dir().join("rsat_corpus_empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run_corpus(&dir, &analyze(), &CorpusOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_budget_is_a_driver_error() {
        let opts = CorpusOptions {
            jobs: 1,
            ..Default::default()
        };
        for op in [RsOp::Reduce, RsOp::Pipeline] {
            let e = run_corpus(&fixture_dir(), &request(op, Some(0)), &opts).unwrap_err();
            assert!(e.message().contains("at least 1"), "{e}");
        }
    }

    #[test]
    fn invalid_request_fails_before_the_directory_is_read() {
        let missing = Path::new("/nonexistent_rsat_corpus_dir");
        let opts = CorpusOptions::default();
        for registers in [None, Some(0)] {
            let e = run_corpus(missing, &request(RsOp::Pipeline, registers), &opts).unwrap_err();
            assert_eq!(e.code(), codes::USAGE, "{e}");
        }
        let reduce_with_ilp = RsRequest {
            ilp: true,
            ..request(RsOp::Reduce, Some(3))
        };
        let e = run_corpus(missing, &reduce_with_ilp, &opts).unwrap_err();
        assert!(
            e.code() == codes::USAGE && e.message().contains("`ilp`"),
            "{e}"
        );
        assert_eq!(
            run_corpus(missing, &analyze(), &opts).unwrap_err().code(),
            codes::IO
        );
    }
}

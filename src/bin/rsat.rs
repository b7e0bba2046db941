//! `rsat` — register-saturation command-line tool.
//!
//! ```text
//! rsat analyze  <file.ddg> [--type float|int|branch] [--exact] [--ilp] [--stats] [--threads N] [--timeout-ms N] [--audit]
//! rsat reduce   <file.ddg> --registers N [--type T] [--spill] [--output out.ddg] [--timeout-ms N]
//! rsat pipeline <file.ddg> --registers N [--issue 1|4|8] [--timeout-ms N]
//! rsat corpus   <dir> [--jobs N] [--mode analyze|reduce|pipeline] [--registers N] [--ilp] [--out dir]
//!               [--timeout-ms N] [--retries N] [--resume PATH] [--faults SPEC]
//! rsat serve    [--workers N] [--queue N] [--cache-capacity N] [--socket PATH] [--grace-ms N]
//!               [--faults SPEC]
//! rsat dot      <file.ddg>
//! rsat lint     [--root DIR] [--out FILE] [--deny] [--list-rules] [--quiet]
//! ```
//!
//! Every subcommand except `dot` speaks the shared request/response schema
//! of [`rs_core::request`]: flags are folded into one [`RsRequest`], executed
//! by the same [`rs_serve::Dispatcher`] that powers `rsat serve` and
//! `rsat corpus`, and the [`rs_core::request::RsResponse`] is rendered for
//! humans here. Errors carry the unified `{code, message}` shape and print
//! as `rsat: error[code]: message`.
//!
//! `--threads N` runs the exact solvers (`--exact` combinatorial search,
//! `--ilp` intLP branch-and-bound) with `N` parallel workers; the reported
//! saturations are identical for every thread count. `--stats` prints the
//! branch-and-bound solve statistics of each `--ilp` run (nodes, LP
//! solves, incremental dive-tableau solves and hits, pseudocost branch
//! and strong-branching-probe counts, simplex pivots with the
//! steepest-edge share, bound flips, cutting planes added with the root
//! round count, propagation fathoms, and the relaxation tableau shape).
//!
//! `corpus` walks a directory of `.ddg` files with `--jobs` scoped-thread
//! workers (each a warm dispatcher), prints a per-file summary, and writes
//! `corpus.json`/`corpus.txt` under `--out` (default `results/`). Malformed
//! files are reported in the summary and skipped — they do not abort the
//! run or fail the exit code. The summary content is identical for every
//! `--jobs` value. `--ilp` adds the exact intLP saturation per file; with
//! `--timeout-ms N --retries K`, a timed-out intLP *resumes* from its
//! checkpoint on the next attempt instead of restarting. `--resume PATH`
//! keeps an atomically-rewritten run checkpoint so a killed corpus run,
//! rerun with the same flag, skips the files it already completed.
//!
//! `serve` is the persistent daemon: newline-delimited JSON requests on
//! stdin (or a Unix socket with `--socket`), one response line per request
//! in request order, warm engines across requests, and a content-keyed
//! memoization cache shared by all workers. A malformed line answers
//! `ok:false` and the daemon keeps serving. Run statistics go to stderr at
//! shutdown (EOF).
//!
//! `--audit` forces the solver's pre-solve static audit on (it defaults to
//! on in debug builds only): models, cut pools, and resume checkpoints are
//! statically checked before any search, and incoherent ones are rejected
//! with a typed `request` error instead of corrupting a solve. `--stats`
//! reports whether a solve was audited.
//!
//! `lint` runs the workspace static-analysis pass (`rs-lint`) over the
//! repository: determinism and soundness rules (no hash-ordered iteration
//! in search code, no wall-clock near committed state, no raw float
//! equality on solver values, no panics on serve request paths, …) with
//! findings written to `results/lint.json`.
//!
//! The input format is documented in `rs_core::parse`. Examples live in
//! `examples/data/*.ddg`.

#![forbid(unsafe_code)]

use rs_core::parse::parse_ddg;
use rs_core::request::{codes, RsError, RsOp, RsRequest, RsResult};
use rs_serve::{serve_io, Dispatcher, FaultPlan, ServeConfig, UnixServer};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rsat: error[{}]: {}", e.code, e.message);
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  rsat analyze  <file.ddg> [--type float|int|branch] [--exact] [--ilp] [--stats] [--threads N] [--timeout-ms N]"
            );
            eprintln!(
                "  rsat reduce   <file.ddg> --registers N [--type T] [--spill] [--output out.ddg] [--timeout-ms N]"
            );
            eprintln!("  rsat pipeline <file.ddg> --registers N [--issue 1|4|8] [--timeout-ms N]");
            eprintln!(
                "  rsat corpus   <dir> [--jobs N] [--mode analyze|reduce|pipeline] [--registers N] [--ilp] [--out dir] [--timeout-ms N] [--retries N] [--resume PATH] [--faults SPEC]"
            );
            eprintln!(
                "  rsat serve    [--workers N] [--queue N] [--cache-capacity N] [--socket PATH] [--grace-ms N] [--faults SPEC]"
            );
            eprintln!("  rsat dot      <file.ddg>");
            eprintln!(
                "  rsat lint     [--root DIR] [--out FILE] [--deny] [--list-rules] [--quiet]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), RsError> {
    let cmd = args
        .first()
        .ok_or_else(|| RsError::usage("missing command"))?;
    match cmd.as_str() {
        "analyze" | "reduce" | "pipeline" => one_shot(cmd, args),
        "corpus" => corpus(args),
        "serve" => serve(args),
        "dot" => dot(args),
        "lint" => lint(args),
        other => Err(RsError::usage(format!("unknown command `{other}`"))),
    }
}

/// Runs one `analyze`/`reduce`/`pipeline` invocation through the service
/// dispatch path: flags → [`RsRequest`] → [`Dispatcher`] → rendered
/// response.
fn one_shot(cmd: &str, args: &[String]) -> Result<(), RsError> {
    let file = args
        .get(1)
        .ok_or_else(|| RsError::usage("missing input file"))?;
    let input = std::fs::read_to_string(file)
        .map_err(|e| RsError::new(codes::IO, format!("cannot read {file}: {e}")))?;
    let req = build_request(cmd, input, args)?;
    let resp = Dispatcher::new().dispatch(&req);
    // A timeout response is a degradation, not a failure: it still
    // carries the best partial result, which gets rendered normally
    // (with interruption markers) plus a warning on stderr.
    let timed_out = match (resp.ok, &resp.error) {
        (false, Some(e)) if e.code == codes::TIMEOUT => resp.error.clone(),
        _ => None,
    };
    let result = match (resp.ok || timed_out.is_some(), resp.result) {
        (true, Some(result)) => result,
        _ => {
            let mut e = resp
                .error
                .unwrap_or_else(|| RsError::new(codes::ENGINE, "missing error detail"));
            if e.code == codes::PARSE {
                e.message = format!("{file}: {}", e.message);
            }
            return Err(e);
        }
    };
    let interrupted = timed_out.is_some();
    match req.op {
        RsOp::Analyze => render_analyze(&req, &result),
        RsOp::Reduce => render_reduce(&req, &result, flag_value(args, "--output"), interrupted)?,
        RsOp::Pipeline => render_pipeline(&req, &result, interrupted)?,
    }
    if let Some(e) = timed_out {
        eprintln!("rsat: warning[{}]: {}", e.code, e.message);
    }
    Ok(())
}

/// Folds the one-shot subcommand flags into a service request. The same
/// parameter validation ([`RsRequest::validate`]) applies to CLI runs and
/// daemon requests alike.
fn build_request(cmd: &str, ddg: String, args: &[String]) -> Result<RsRequest, RsError> {
    let op = RsOp::from_name(cmd).expect("caller routes known subcommands");
    let mut req = RsRequest::new(op, ddg);
    req.cache = false; // one-shot process: nothing to warm
    req.reg_type = flag_value(args, "--type");
    req.threads = match flag_value(args, "--threads") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --threads value"))?
            .max(1),
        None => 1,
    };
    req.registers = match flag_value(args, "--registers") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| RsError::usage("bad --registers value"))?,
        ),
        None => None,
    };
    req.issue = match flag_value(args, "--issue") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| RsError::usage(format!("unknown issue width `{v}`")))?,
        ),
        None => None,
    };
    req.exact = args.iter().any(|a| a == "--exact");
    req.ilp = args.iter().any(|a| a == "--ilp");
    req.stats = args.iter().any(|a| a == "--stats");
    req.spill = args.iter().any(|a| a == "--spill");
    req.emit_ddg = op == RsOp::Reduce && flag_value(args, "--output").is_some();
    req.timeout_ms = parse_timeout_ms(args)?;
    if args.iter().any(|a| a == "--audit") {
        req.audit = Some(true);
    }
    Ok(req)
}

fn parse_timeout_ms(args: &[String]) -> Result<Option<u64>, RsError> {
    match flag_value(args, "--timeout-ms") {
        Some(v) => Ok(Some(
            v.parse::<u64>()
                .map_err(|_| RsError::usage("bad --timeout-ms value"))?,
        )),
        None => Ok(None),
    }
}

fn render_analyze(req: &RsRequest, result: &RsResult) {
    println!(
        "{} operations (incl. ⊥), {} edges, critical path {}",
        result.ops, result.edges, result.critical_path
    );
    for tr in &result.types {
        let t = &tr.reg_type;
        print!("type {t}: {} values, RS* = {}", tr.values, tr.saturation);
        if let Some(e) = &tr.exact {
            print!(", exact RS = {}{}", e.saturation, solve_qualifier(e));
        }
        if let Some(i) = &tr.ilp {
            print!(", intLP RS = {}{}", i.saturation, solve_qualifier(i));
        }
        if let Some(e) = &tr.ilp_error {
            if e.code == codes::TIMEOUT {
                print!(", intLP interrupted: {}", e.message);
            } else {
                print!(", intLP failed: {e}");
            }
        }
        println!();
        if let (true, Some(st)) = (req.stats, &tr.ilp_stats) {
            println!(
                "  intLP stats: {} nodes, {} LP solves ({} warm dives, {} warm hits), \
                 {} pseudocost branches, {} strong-branch probes, \
                 {} pivots ({} steepest-edge), {} bound flips, {} cuts in {} rounds, \
                 {} propagation fathoms, tableau {}x{}, trace digest {:016x}",
                st.nodes,
                st.lp_solves,
                st.warm_solves,
                st.warm_hits,
                st.pseudocost_branches,
                st.strong_branch_probes,
                st.pivots,
                st.dse_pivots,
                st.bound_flips,
                st.cuts_added,
                st.cut_rounds,
                st.propagation_fathoms,
                st.rows,
                st.cols,
                st.trace_digest
            );
            if st.audited {
                println!("  intLP audit: model, cut pool, and resume state statically checked");
            }
        }
        println!("  saturating values: {}", tr.saturating.join(", "));
    }
}

/// How an exact-flavour solver result is qualified: nothing when proven,
/// otherwise "not proven optimal" with the solver's upper bound bracketing
/// the true saturation.
fn solve_qualifier(s: &rs_core::request::SolveResult) -> String {
    if s.proven_optimal {
        return String::new();
    }
    match s.bound {
        Some(b) => format!(" (not proven optimal; true RS ≤ {b})"),
        None => " (not proven optimal)".to_string(),
    }
}

fn render_reduce(
    req: &RsRequest,
    result: &RsResult,
    output: Option<String>,
    interrupted: bool,
) -> Result<(), RsError> {
    let registers = req.registers.expect("validated");
    for tr in &result.types {
        let t = &tr.reg_type;
        let r = tr.reduce.as_ref().expect("reduce op reports reduction");
        if !r.fits && interrupted {
            // The deadline cut the reduction short; the partial state
            // (arcs added so far) is still worth reporting.
            println!(
                "type {t}: interrupted at RS {} -> {} (+{} arcs) before meeting budget {registers}",
                tr.saturation, r.rs_after, r.arcs_added
            );
            continue;
        }
        if !r.fits {
            // Batch clients see `fits: false`; the interactive CLI makes an
            // unmet budget fatal, as before.
            let message = if req.spill {
                format!("type {t}: cannot reach {registers} registers even with spilling")
            } else {
                format!(
                    "type {t}: cannot reduce RS {} to {registers} by serialization (try --spill)",
                    tr.saturation
                )
            };
            return Err(RsError::new(codes::INFEASIBLE, message));
        }
        if !r.spilled.is_empty() {
            println!(
                "type {t}: RS {} needed spilling: {:?} spilled, final RS = {}",
                tr.saturation, r.spilled, r.rs_after
            );
        } else if r.arcs_added == 0 {
            println!("type {t}: RS = {} ≤ {registers}, untouched", r.rs_after);
        } else {
            println!(
                "type {t}: RS {} -> {} (+{} arcs, critical path {} -> {})",
                tr.saturation, r.rs_after, r.arcs_added, r.cp_before, r.cp_after
            );
        }
    }
    if let Some(path) = output {
        let text = result.ddg_out.as_ref().expect("emit_ddg was requested");
        std::fs::write(&path, text)
            .map_err(|e| RsError::new(codes::IO, format!("cannot write {path}: {e}")))?;
        println!("modified DDG written to {path}");
    }
    Ok(())
}

fn render_pipeline(req: &RsRequest, result: &RsResult, interrupted: bool) -> Result<(), RsError> {
    let registers = req.registers.expect("validated");
    for tr in &result.types {
        let fits = tr.reduce.as_ref().is_some_and(|r| r.fits);
        if !fits && interrupted {
            println!(
                "type {}: interrupted before meeting budget {registers}; no schedule",
                tr.reg_type
            );
            return Ok(());
        }
        if !fits {
            return Err(RsError::new(
                codes::INFEASIBLE,
                format!(
                    "type {}: budget {registers} infeasible without spilling",
                    tr.reg_type
                ),
            ));
        }
    }
    let makespan = result.makespan.expect("all budgets fit");
    println!("schedule makespan: {makespan}");
    for tr in &result.types {
        let a = tr.alloc.expect("pipeline allocates when budgets fit");
        println!(
            "type {}: {} registers used, {} spills",
            tr.reg_type, a.registers_used, a.spills
        );
    }
    Ok(())
}

/// `rsat corpus <dir>`: the parallel corpus driver of `rs-bench` — a batch
/// client of the same dispatch path — with the report plumbing the
/// experiment binaries use. A malformed `.ddg` is reported in the summary
/// and skipped; only driver-level failures (unreadable directory, no corpus
/// files, bad flags) fail the command.
fn corpus(args: &[String]) -> Result<(), RsError> {
    use rs_bench::corpus::{render_text, run_corpus, CorpusMode, CorpusOptions};

    let dir = args
        .get(1)
        .ok_or_else(|| RsError::usage("missing corpus directory"))?;
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --jobs value"))?
            .max(1),
        None => 1,
    };
    let registers = match flag_value(args, "--registers") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| RsError::usage("bad --registers value"))?,
        ),
        None => None,
    };
    let mode = match flag_value(args, "--mode").as_deref() {
        None | Some("analyze") => CorpusMode::Analyze,
        Some("reduce") => CorpusMode::Reduce {
            registers: registers
                .ok_or_else(|| RsError::usage("--mode reduce requires --registers N"))?,
        },
        Some("pipeline") => CorpusMode::Pipeline {
            registers: registers
                .ok_or_else(|| RsError::usage("--mode pipeline requires --registers N"))?,
        },
        Some(other) => return Err(RsError::usage(format!("unknown corpus mode `{other}`"))),
    };
    let out_dir = flag_value(args, "--out").unwrap_or_else(|| "results".to_string());
    let timeout_ms = parse_timeout_ms(args)?;
    let retries = match flag_value(args, "--retries") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --retries value"))?,
        None => 0,
    };
    let ilp = args.iter().any(|a| a == "--ilp");
    let resume_path = flag_value(args, "--resume").map(std::path::PathBuf::from);
    let faults = parse_faults(args)?;

    let summary = run_corpus(
        std::path::Path::new(dir),
        &CorpusOptions {
            jobs,
            mode,
            timeout_ms,
            retries,
            ilp,
            resume_path,
            faults,
        },
    )?;
    let text = render_text(&summary);
    print!("{text}");
    rs_bench::common::write_report(std::path::Path::new(&out_dir), "corpus", &text, &summary);
    println!(
        "summary written to {}",
        std::path::Path::new(&out_dir).join("corpus.json").display()
    );
    Ok(())
}

/// `rsat serve`: the warm-engine daemon. Stdio mode reads request lines
/// from stdin and writes response lines to stdout; `--socket PATH` serves a
/// Unix socket instead (stdin EOF stops the daemon). Human-facing output
/// (startup banner, shutdown statistics) goes to stderr only — stdout
/// carries nothing but response JSON.
fn serve(args: &[String]) -> Result<(), RsError> {
    let mut cfg = ServeConfig::default();
    if let Some(v) = flag_value(args, "--workers") {
        cfg.workers = v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --workers value"))?;
    }
    if let Some(v) = flag_value(args, "--queue") {
        cfg.queue = v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --queue value"))?
            .max(1);
    }
    if let Some(v) = flag_value(args, "--cache-capacity") {
        cfg.cache_capacity = v
            .parse::<usize>()
            .map_err(|_| RsError::usage("bad --cache-capacity value"))?;
    }
    if let Some(v) = flag_value(args, "--grace-ms") {
        cfg.grace_ms = v
            .parse::<u64>()
            .map_err(|_| RsError::usage("bad --grace-ms value"))?;
    }
    cfg.faults = parse_faults(args)?;
    if cfg.faults.is_some() {
        eprintln!("rsat serve: CHAOS MODE — fault injection active");
    }

    let stats = match flag_value(args, "--socket") {
        Some(path) => {
            let server = UnixServer::bind(std::path::Path::new(&path), &cfg)
                .map_err(|e| RsError::new(codes::IO, format!("cannot bind {path}: {e}")))?;
            eprintln!(
                "rsat serve: listening on {path} with {} workers (EOF on stdin stops)",
                cfg.effective_workers()
            );
            // Park until the parent closes stdin, then drain and exit.
            let mut sink = Vec::new();
            let _ = std::io::stdin().lock().read_to_end(&mut sink);
            server.stop()
        }
        None => {
            eprintln!(
                "rsat serve: reading requests from stdin with {} workers",
                cfg.effective_workers()
            );
            let stdin = std::io::stdin();
            let (stats, _) = serve_io(stdin.lock(), std::io::stdout(), &cfg);
            stats
        }
    };
    eprintln!(
        "rsat serve: {} requests, {} ok, {} failed ({} timeout, {} shed), \
         {} watchdog cancels, {} engines replaced, cache {} hits / {} misses, \
         {} checkpoints stored / {} resumed",
        stats.requests,
        stats.ok,
        stats.failed,
        stats.timeouts,
        stats.shed,
        stats.watchdog_cancels,
        stats.engines_replaced,
        stats.cache_hits,
        stats.cache_misses,
        stats.checkpoints_stored,
        stats.resumed
    );
    Ok(())
}

/// Fault injection plan from `--faults SPEC` (first) or the `RSAT_FAULTS`
/// environment variable. Both fail fast at startup with a usage error —
/// silently running *without* the chaos schedule the operator configured
/// would invalidate exactly the experiment it was set up for
/// ([`FaultPlan::from_env`]).
fn parse_faults(args: &[String]) -> Result<Option<std::sync::Arc<FaultPlan>>, RsError> {
    match flag_value(args, "--faults") {
        Some(spec) => FaultPlan::from_spec(&spec)
            .map(|p| Some(std::sync::Arc::new(p)))
            .map_err(|e| RsError::usage(format!("bad --faults value: {e}"))),
        None => FaultPlan::from_env().map_err(RsError::usage),
    }
}

fn dot(args: &[String]) -> Result<(), RsError> {
    let file = args
        .get(1)
        .ok_or_else(|| RsError::usage("missing input file"))?;
    let input = std::fs::read_to_string(file)
        .map_err(|e| RsError::new(codes::IO, format!("cannot read {file}: {e}")))?;
    let ddg = parse_ddg(&input).map_err(|e| RsError::new(codes::PARSE, format!("{file}: {e}")))?;
    println!("{}", ddg.to_dot("ddg", &[]));
    Ok(())
}

/// `rsat lint`: the embedded `rs-lint` workspace pass. Equivalent to
/// `cargo run -p rs-lint -- --workspace`, so the gate ships inside the
/// installed CLI. Findings (errors, or warnings under `--deny`) fail the
/// command after the report is printed and written.
fn lint(args: &[String]) -> Result<(), RsError> {
    if args.iter().any(|a| a == "--list-rules") {
        println!("{:<6} {:<6} rule", "id", "level");
        for r in rs_lint::RULES {
            println!(
                "{:<6} {:<6} {}  [{}]",
                r.id,
                r.severity.as_str(),
                r.title,
                r.scope
            );
        }
        return Ok(());
    }
    let root = flag_value(args, "--root").unwrap_or_else(|| ".".to_string());
    let report = rs_lint::scan_workspace(std::path::Path::new(&root))
        .map_err(|e| RsError::new(codes::IO, format!("cannot scan {root}: {e}")))?;
    let quiet = args.iter().any(|a| a == "--quiet");
    if !quiet {
        for f in &report.findings {
            println!(
                "{}:{}: {}[{}] {}",
                f.file,
                f.line,
                f.severity.as_str(),
                f.rule,
                f.message
            );
            println!("    | {}", f.snippet);
        }
    }
    let out = flag_value(args, "--out").unwrap_or_else(|| "results/lint.json".to_string());
    let out_path = std::path::Path::new(&out);
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    std::fs::write(out_path, report.to_json())
        .map_err(|e| RsError::new(codes::IO, format!("cannot write {out}: {e}")))?;
    let (errors, warnings) = (report.errors(), report.warnings());
    eprintln!(
        "rsat lint: {} files scanned, {errors} errors, {warnings} warnings, {} allows ({out})",
        report.files_scanned,
        report.allows.len(),
    );
    let deny = args.iter().any(|a| a == "--deny");
    if errors > 0 || (deny && warnings > 0) {
        return Err(RsError::new(
            codes::ENGINE,
            format!("lint failed: {errors} errors, {warnings} warnings (see {out})"),
        ));
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

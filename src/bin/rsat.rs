//! `rsat` — register-saturation command-line tool.
//!
//! ```text
//! rsat analyze  <file.ddg> [--type float|int|branch] [--exact] [--ilp] [--stats] [--threads N] [--timeout-ms N]
//! rsat reduce   <file.ddg> --registers N [--type T] [--spill] [--output out.ddg] [--timeout-ms N]
//! rsat pipeline <file.ddg> --registers N [--type T] [--issue 1|4|8] [--timeout-ms N]
//! rsat corpus   <dir> [--jobs N] [--mode analyze|reduce|pipeline] [--registers N] [--ilp] [--out dir]
//!               [--timeout-ms N] [--resume PATH]
//! rsat serve    [--workers N] [--queue N] [--cache-capacity N] [--socket PATH] [--faults SPEC]
//! rsat dot      <file.ddg>
//! ```
//!
//! Every subcommand except `dot` speaks the shared request/response schema
//! of [`rs_core::request`]: flags are folded into one [`RsRequest`], executed
//! by the same [`rs_serve::Dispatcher`] that powers `rsat serve` and
//! `rsat corpus`, and the [`rs_core::request::RsResponse`] is rendered for
//! humans here. Errors carry the unified `{code, message}` shape and print
//! as `rsat: error[code]: message`. An argument that is neither one of the
//! subcommand's flags nor the value of its value flag is a usage error,
//! reported before any work starts.
//!
//! `--threads N` runs the exact solvers (`--exact` combinatorial search,
//! `--ilp` intLP branch-and-bound) with `N` parallel workers; the reported
//! saturations are identical for every thread count. `--stats`, which
//! needs `--ilp`, prints the branch-and-bound solve statistics of each
//! intLP run (nodes, LP solves, dive steps, pseudocost branch and
//! strong-branching-probe counts, simplex pivots with the steepest-edge
//! share, bound flips, cutting planes added with the root round count,
//! propagation fathoms, and the relaxation tableau shape).
//!
//! `corpus` folds its flags into one request, exactly as the one-shots do
//! (`--mode` is the op), and applies it to every `.ddg` file of a
//! directory with `--jobs` scoped-thread workers (each a warm dispatcher);
//! it prints a per-file summary and writes `corpus.json`/`corpus.txt`
//! under `--out` (default `results/`), or answers `error[io]` when it
//! cannot. Malformed files are reported in the summary and skipped — they
//! do not abort the run or fail the exit code. The summary content is
//! identical for every `--jobs` value. `--ilp` (analyze mode only) adds
//! each type's intLP answer per file (its saturation, whether it is
//! proven, and its bound when it is not), and `--timeout-ms N` caps each
//! file's work. `--resume PATH` keeps an atomically-rewritten run
//! checkpoint so a killed corpus run, rerun with the same flags, skips the
//! files it already completed.
//!
//! `serve` is the persistent daemon: newline-delimited JSON requests on
//! stdin (or a Unix socket with `--socket`), one response line per request
//! in request order, warm engines across requests, and a content-keyed
//! memoization cache shared by all workers. A malformed line answers
//! `ok:false` and the daemon keeps serving. Run statistics go to stderr at
//! shutdown (EOF).
//!
//! Every intLP solve runs the solver's pre-solve static audit: models and
//! cut pools are statically checked before any search, and incoherent ones
//! are rejected with a typed `request` error instead of corrupting a solve.
//!
//! The input format is documented in `rs_core::parse`. Examples live in
//! `examples/data/*.ddg`.

#![forbid(unsafe_code)]

use rs_core::parse::parse_ddg;
use rs_core::request::{codes, RsError, RsOp, RsRequest, RsResult};
use rs_serve::{
    render_text, run_corpus, serve_io, write_report, CorpusOptions, Dispatcher, FaultPlan,
    ServeConfig, UnixServer,
};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Every subcommand with its usage: the operand, if any, then its flags as
/// `[--flag VALUE]` (optional), `--flag VALUE` (required) or `[--flag]` (a
/// switch). The usage text and the argument check both read this table.
const SUBCOMMANDS: [(&str, &str); 6] = [
    ("analyze", "<file.ddg> [--type float|int|branch] [--exact] [--ilp] [--stats] [--threads N] [--timeout-ms N]"),
    ("reduce", "<file.ddg> --registers N [--type T] [--spill] [--output out.ddg] [--timeout-ms N]"),
    ("pipeline", "<file.ddg> --registers N [--type T] [--issue 1|4|8] [--timeout-ms N]"),
    ("corpus", "<dir> [--jobs N] [--mode analyze|reduce|pipeline] [--registers N] [--ilp] [--out dir] [--timeout-ms N] [--resume PATH]"),
    ("serve", "[--workers N] [--queue N] [--cache-capacity N] [--socket PATH] [--faults SPEC]"),
    ("dot", "<file.ddg>"),
];

/// Rejects every argument after the subcommand's operand that is neither
/// a flag of its `usage` nor the value after one of its value flags (a
/// value is what [`flag_value`] reads: the next argument, unless that is a
/// `--` flag).
fn check_args(cmd: &str, usage: &str, args: &[String]) -> Result<(), RsError> {
    let takes_value = |arg: &str| {
        let mut words = usage.split_whitespace().map(|w| w.trim_matches(['[', ']']));
        words.position(|w| w == arg && w.starts_with("--"))?;
        Some(words.next().is_some_and(|w| !w.starts_with("--")))
    };
    let operands = 1 + usize::from(usage.starts_with('<'));
    let mut rest = args.iter().skip(operands).peekable();
    while let Some(arg) = rest.next() {
        match takes_value(arg) {
            Some(true) => {
                rest.next_if(|v| !v.starts_with("--"));
            }
            Some(false) => {}
            None => {
                return Err(RsError::usage(format!(
                    "unexpected argument `{arg}` for `rsat {cmd}`"
                )))
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rsat: error[{}]: {e}", e.code());
            eprintln!();
            eprintln!("usage:");
            for (cmd, usage) in SUBCOMMANDS {
                eprintln!("  rsat {cmd:<8} {usage}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), RsError> {
    let cmd = args
        .first()
        .ok_or_else(|| RsError::usage("missing command"))?;
    let unknown = || RsError::usage(format!("unknown command `{cmd}`"));
    let (_, usage) = SUBCOMMANDS
        .iter()
        .find(|(name, _)| name == cmd)
        .ok_or_else(unknown)?;
    check_args(cmd, usage, args)?;
    match cmd.as_str() {
        "analyze" | "reduce" | "pipeline" => one_shot(cmd, args),
        "corpus" => corpus(args),
        "serve" => serve(args),
        "dot" => dot(args),
        _ => Err(unknown()),
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
    let op = RsOp::from_name(cmd).expect("caller routes known subcommands");
    let req = build_request(op, input, args)?;
    let resp = Dispatcher::new().dispatch(&req);
    // A timeout response is a degradation, not a failure: it still
    // carries the best partial result, which gets rendered normally
    // (with interruption markers) plus a warning on stderr.
    let timed_out = match (resp.ok, &resp.error) {
        (false, Some(e)) if e.code() == codes::TIMEOUT => resp.error.clone(),
        _ => None,
    };
    let result = match (resp.ok || timed_out.is_some(), resp.result) {
        (true, Some(result)) => result,
        _ => {
            let e = resp
                .error
                .unwrap_or_else(|| RsError::new(codes::ENGINE, "missing error detail"));
            if e.code() == codes::PARSE {
                return Err(RsError::new(codes::PARSE, format!("{file}: {e}")));
            }
            return Err(e);
        }
    };
    let interrupted = timed_out.is_some();
    match req.op {
        RsOp::Analyze => render_analyze(&req, &result),
        RsOp::Reduce => render_reduce(&req, &result, flag_value(args, "--output")?, interrupted)?,
        RsOp::Pipeline => render_pipeline(&req, &result, interrupted)?,
    }
    if let Some(e) = timed_out {
        eprintln!("rsat: warning[{}]: {e}", e.code());
    }
    Ok(())
}

/// Folds a subcommand's flags into the service request for `op`: the one
/// place `rsat` reads the request flags, for the one-shots and for
/// `corpus` (whose request every file then runs). The same parameter
/// validation ([`RsRequest::validate`]) applies to CLI runs and daemon
/// requests alike.
fn build_request(op: RsOp, ddg: String, args: &[String]) -> Result<RsRequest, RsError> {
    let mut req = RsRequest::new(op, ddg);
    req.cache = false; // a CLI process keeps no cache to warm
    req.reg_type = flag_value(args, "--type")?;
    req.threads = flag_parsed(args, "--threads")?.unwrap_or(1).max(1);
    req.registers = flag_parsed(args, "--registers")?;
    req.issue = flag_parsed(args, "--issue")?;
    req.exact = args.iter().any(|a| a == "--exact");
    req.ilp = args.iter().any(|a| a == "--ilp");
    req.stats = args.iter().any(|a| a == "--stats");
    req.spill = args.iter().any(|a| a == "--spill");
    req.emit_ddg = op == RsOp::Reduce && flag_value(args, "--output")?.is_some();
    req.timeout_ms = flag_parsed(args, "--timeout-ms")?;
    Ok(req)
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
            if e.code() == codes::TIMEOUT {
                print!(", intLP interrupted: {e}");
            } else {
                print!(", intLP failed: {e}");
            }
        }
        println!();
        if let (true, Some(st)) = (req.stats, &tr.ilp_stats) {
            println!(
                "  intLP stats: {} nodes, {} LP solves ({} dive steps), \
                 {} pseudocost branches, {} strong-branch probes, \
                 {} pivots ({} steepest-edge), {} bound flips, {} cuts in {} rounds, \
                 {} propagation fathoms, tableau {}x{}, trace digest {:016x}",
                st.nodes,
                st.lp_solves,
                st.dive_steps,
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

/// `rsat corpus <dir>`: one request, built from the flags with `--mode`
/// as its op, applied to every `.ddg` file by the corpus runner of
/// `rs-serve` — a batch client of the same dispatch path. A malformed
/// `.ddg` is reported in the summary and skipped; only failures of the run
/// itself (an invalid request, an unreadable directory, no corpus files,
/// a report that cannot be written) fail the command.
fn corpus(args: &[String]) -> Result<(), RsError> {
    let dir = args
        .get(1)
        .ok_or_else(|| RsError::usage("missing corpus directory"))?;
    let jobs = flag_parsed(args, "--jobs")?.unwrap_or(1).max(1);
    let op = match flag_value(args, "--mode")? {
        None => RsOp::Analyze,
        Some(mode) => RsOp::from_name(&mode)
            .ok_or_else(|| RsError::usage(format!("unknown corpus mode `{mode}`")))?,
    };
    let request = build_request(op, String::new(), args)?;
    let out_dir = PathBuf::from(flag_value(args, "--out")?.unwrap_or_else(|| "results".into()));
    let resume_path = flag_value(args, "--resume")?.map(PathBuf::from);

    let summary = run_corpus(
        Path::new(dir),
        &request,
        &CorpusOptions { jobs, resume_path },
    )?;
    let text = render_text(&summary);
    print!("{text}");
    write_report(&out_dir, "corpus", &text, &summary)?;
    println!(
        "summary written to {}",
        out_dir.join("corpus.json").display()
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
    if let Some(workers) = flag_parsed(args, "--workers")? {
        cfg.workers = workers;
    }
    if let Some(queue) = flag_parsed::<usize>(args, "--queue")? {
        cfg.queue = queue.max(1);
    }
    if let Some(capacity) = flag_parsed(args, "--cache-capacity")? {
        cfg.cache_capacity = capacity;
    }
    cfg.faults = parse_faults(args)?;
    if cfg.faults.is_some() {
        eprintln!("rsat serve: CHAOS MODE — fault injection active");
    }

    let stats = match flag_value(args, "--socket")? {
        Some(path) => {
            let server = UnixServer::bind(Path::new(&path), &cfg)
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
         cache {} hits / {} misses",
        stats.requests,
        stats.ok,
        stats.failed,
        stats.timeouts,
        stats.shed,
        stats.cache_hits,
        stats.cache_misses
    );
    Ok(())
}

/// Fault injection plan from `--faults SPEC`. A malformed spec fails fast
/// at startup with a usage error — silently running *without* the chaos
/// schedule the operator configured would invalidate exactly the
/// experiment it was set up for. A plan no clause of which can fire
/// (`panic=0`, an empty spec) is dropped: the daemon runs without fault
/// probes.
fn parse_faults(args: &[String]) -> Result<Option<std::sync::Arc<FaultPlan>>, RsError> {
    let Some(spec) = flag_value(args, "--faults")? else {
        return Ok(None);
    };
    let plan = FaultPlan::from_spec(&spec)
        .map_err(|e| RsError::usage(format!("bad --faults value: {e}")))?;
    Ok((!plan.is_empty()).then(|| std::sync::Arc::new(plan)))
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

/// The value of a value-taking flag: the argument after it. A flag given
/// last, or followed by another `--` flag, is a usage error rather than
/// silently dropped; an empty value (`--faults ""`) is still a value.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, RsError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(RsError::usage(format!("missing value for {flag}"))),
    }
}

/// A typed flag's value: [`flag_value`], parsed; a value that does not
/// parse is a usage error naming the flag.
fn flag_parsed<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, RsError> {
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| RsError::usage(format!("bad {flag} value")))
        })
        .transpose()
}

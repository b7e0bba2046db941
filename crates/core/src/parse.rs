//! A line-oriented text format for DDGs, so saturation analyses can be run
//! on graphs produced by external compilers (the paper's DDGs were
//! extracted from a compiler's IR; this is the interchange boundary).
//!
//! ```text
//! # comments and blank lines are ignored
//! target superscalar            # or: vliw
//! op   a   load    float        # name, class, value type (or "none")
//! op   b   fadd    float
//! op   p   load    int,float    # several values: distinct types, comma-separated
//! op   st  store   none
//! flow a b 4 float              # producer, consumer, latency, type
//! flow b st 2 float
//! serial a st 1                 # plain precedence
//! ```
//!
//! Latencies are integers within ±(2^31 − 1) ([`rs_graph::MAX_LATENCY`]),
//! which keeps every longest-path sum exact; a `flow` latency must also
//! reach the target minimum `δw(src) − δr(dst)`.
//!
//! Node names are arbitrary identifiers (no whitespace). [`parse_ddg`]
//! builds the closed DDG; [`print_ddg`] emits the same format (modulo the
//! virtual `⊥`, which is never printed), and the two round-trip.

use crate::model::{Ddg, DdgBuilder, EdgeKind, OpClass, RegType, Target};
use rs_graph::{NodeId, MAX_LATENCY};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parse failure, with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a latency token: an integer within ±[`MAX_LATENCY`], so that
/// every longest-path sum stays exact.
fn latency(lineno: usize, kind: &str, token: &str) -> Result<i64, ParseError> {
    let lat: i64 = token
        .parse()
        .map_err(|_| err(lineno, format!("bad latency `{token}`")))?;
    if !(-MAX_LATENCY..=MAX_LATENCY).contains(&lat) {
        return Err(err(
            lineno,
            format!("{kind} latency {lat} outside ±{MAX_LATENCY}"),
        ));
    }
    Ok(lat)
}

fn class_of(s: &str) -> Option<OpClass> {
    Some(match s {
        "load" => OpClass::Load,
        "store" => OpClass::Store,
        "ialu" | "add" | "sub" => OpClass::IntAlu,
        "imul" => OpClass::IntMul,
        "falu" | "fadd" | "fsub" | "fcmp" => OpClass::FloatAlu,
        "fmul" => OpClass::FloatMul,
        "fdiv" | "fsqrt" => OpClass::FloatDiv,
        "copy" | "mov" => OpClass::Copy,
        "addr" | "lea" => OpClass::Addr,
        "other" | "nop" => OpClass::Other,
        _ => return None,
    })
}

fn class_name(c: OpClass) -> &'static str {
    match c {
        OpClass::Load => "load",
        OpClass::Store => "store",
        OpClass::IntAlu => "ialu",
        OpClass::IntMul => "imul",
        OpClass::FloatAlu => "falu",
        OpClass::FloatMul => "fmul",
        OpClass::FloatDiv => "fdiv",
        OpClass::Copy => "copy",
        OpClass::Addr => "addr",
        OpClass::Other => "other",
    }
}

/// A register-type column: a [`RegType::name`], or `none`/`-` for an
/// operation that writes no value.
fn type_of(s: &str) -> Option<Option<RegType>> {
    match s {
        "none" | "-" => Some(None),
        _ => RegType::from_name(s).map(Some),
    }
}

/// Parses an op's written types: `none` (or `-`), or a comma-separated
/// list of distinct register types.
fn writes_of(lineno: usize, s: &str) -> Result<Vec<RegType>, ParseError> {
    if matches!(s, "none" | "-") {
        return Ok(Vec::new());
    }
    let mut writes = Vec::new();
    for name in s.split(',') {
        let t = RegType::from_name(name)
            .ok_or_else(|| err(lineno, format!("unknown register type `{name}`")))?;
        if writes.contains(&t) {
            return Err(err(lineno, format!("register type `{name}` written twice")));
        }
        writes.push(t);
    }
    Ok(writes)
}

/// Parses the text format into a closed DDG.
///
/// ```
/// use rs_core::parse::parse_ddg;
/// use rs_core::model::RegType;
///
/// let ddg = parse_ddg("
///     target superscalar
///     op a load  float
///     op b store none
///     flow a b 4 float
/// ").unwrap();
/// assert_eq!(ddg.values(RegType::FLOAT).len(), 1);
/// assert_eq!(ddg.critical_path(), 5); // 4 to the store, 1 to ⊥
/// ```
pub fn parse_ddg(input: &str) -> Result<Ddg, ParseError> {
    let mut target: Option<Target> = None;
    let mut builder: Option<DdgBuilder> = None;
    let mut nodes: BTreeMap<String, NodeId> = BTreeMap::new();

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "target" => {
                if builder.is_some() {
                    return Err(err(lineno, "`target` must precede all `op` lines"));
                }
                let t = match tokens.get(1) {
                    Some(&"superscalar") => Target::superscalar(),
                    Some(&"vliw") => Target::vliw(),
                    Some(other) => {
                        return Err(err(
                            lineno,
                            format!("unknown target `{other}` (expected superscalar|vliw)"),
                        ))
                    }
                    None => {
                        return Err(err(
                            lineno,
                            "missing target name (expected superscalar|vliw)",
                        ))
                    }
                };
                target = Some(t);
            }
            "op" => {
                if tokens.len() != 4 {
                    return Err(err(
                        lineno,
                        "usage: op <name> <class> <type>[,<type>...]|none",
                    ));
                }
                let b = builder.get_or_insert_with(|| {
                    DdgBuilder::new(target.clone().unwrap_or_else(Target::superscalar))
                });
                let name = tokens[1];
                if nodes.contains_key(name) {
                    return Err(err(lineno, format!("duplicate op name `{name}`")));
                }
                let class = class_of(tokens[2])
                    .ok_or_else(|| err(lineno, format!("unknown op class `{}`", tokens[2])))?;
                let writes = writes_of(lineno, tokens[3])?;
                let id = b.op_multi(name, class, writes);
                nodes.insert(name.to_string(), id);
            }
            "flow" => {
                if tokens.len() != 5 {
                    return Err(err(lineno, "usage: flow <src> <dst> <latency> <type>"));
                }
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "flow before any op"))?;
                let src = *nodes
                    .get(tokens[1])
                    .ok_or_else(|| err(lineno, format!("unknown op `{}`", tokens[1])))?;
                let dst = *nodes
                    .get(tokens[2])
                    .ok_or_else(|| err(lineno, format!("unknown op `{}`", tokens[2])))?;
                let lat = latency(lineno, "flow", tokens[3])?;
                let ty = type_of(tokens[4])
                    .ok_or_else(|| err(lineno, format!("unknown register type `{}`", tokens[4])))?
                    .ok_or_else(|| err(lineno, "flow edges need a concrete type"))?;
                // The builder panics on model violations; a parser must
                // reject them as errors instead (a malformed corpus file may
                // not abort a batch run).
                if src == dst {
                    return Err(err(lineno, format!("self-loop on `{}`", tokens[1])));
                }
                if !b.writes(src).contains(&ty) {
                    return Err(err(
                        lineno,
                        format!("`{}` does not write a {} value", tokens[1], tokens[4]),
                    ));
                }
                let min = b.min_flow_latency(src, dst);
                if lat < min {
                    return Err(err(
                        lineno,
                        format!("flow latency {lat} below the target minimum {min}"),
                    ));
                }
                b.flow(src, dst, lat, ty);
            }
            "serial" => {
                if tokens.len() != 4 {
                    return Err(err(lineno, "usage: serial <src> <dst> <latency>"));
                }
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "serial before any op"))?;
                let src = *nodes
                    .get(tokens[1])
                    .ok_or_else(|| err(lineno, format!("unknown op `{}`", tokens[1])))?;
                let dst = *nodes
                    .get(tokens[2])
                    .ok_or_else(|| err(lineno, format!("unknown op `{}`", tokens[2])))?;
                let lat = latency(lineno, "serial", tokens[3])?;
                if src == dst {
                    return Err(err(lineno, format!("self-loop on `{}`", tokens[1])));
                }
                b.serial(src, dst, lat);
            }
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }

    let b = builder.ok_or_else(|| err(0, "empty input: no operations"))?;
    if !b.is_acyclic() {
        return Err(err(0, "dependence graph contains a cycle"));
    }
    Ok(b.finish())
}

/// Prints a DDG in the text format (the virtual `⊥` and its closure arcs
/// are omitted; re-parsing regenerates them).
pub fn print_ddg(ddg: &Ddg) -> String {
    let mut out = String::new();
    let kind = match ddg.target().kind {
        crate::model::TargetKind::Superscalar => "superscalar",
        crate::model::TargetKind::Vliw => "vliw",
    };
    let _ = writeln!(out, "target {kind}");
    let bottom = ddg.bottom();

    // stable printable names: sanitize whitespace and disambiguate
    // duplicates with the node index
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for n in ddg.graph().node_ids() {
        if n != bottom {
            let sanitized: String = ddg
                .graph()
                .node(n)
                .name
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect();
            *counts.entry(sanitized).or_insert(0) += 1;
        }
    }
    let name_of = |n: NodeId| -> String {
        let sanitized: String = ddg
            .graph()
            .node(n)
            .name
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        if counts.get(&sanitized).copied().unwrap_or(0) > 1 {
            format!("{sanitized}.{}", n.index())
        } else {
            sanitized
        }
    };

    for n in ddg.graph().node_ids() {
        if n == bottom {
            continue;
        }
        let op = ddg.graph().node(n);
        let types: Vec<String> = op.writes.iter().map(|t| format!("{t:?}")).collect();
        let ty = if types.is_empty() {
            "none".to_string()
        } else {
            types.join(",")
        };
        let _ = writeln!(out, "op {} {} {}", name_of(n), class_name(op.class), ty);
    }
    for e in ddg.graph().edge_ids() {
        let (src, dst) = (ddg.graph().src(e), ddg.graph().dst(e));
        if src == bottom || dst == bottom {
            continue;
        }
        match ddg.edge_kind(e) {
            EdgeKind::Flow(t) => {
                let _ = writeln!(
                    out,
                    "flow {} {} {} {t:?}",
                    name_of(src),
                    name_of(dst),
                    ddg.graph().latency(e),
                );
            }
            EdgeKind::Serial => {
                let _ = writeln!(
                    out,
                    "serial {} {} {}",
                    name_of(src),
                    name_of(dst),
                    ddg.graph().latency(e)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::GreedyK;

    const SAMPLE: &str = r#"
# two loads into an add, then a store
target superscalar
op  l1  load  float
op  l2  load  float
op  add fadd  float
op  st  store none
flow l1 add 4 float
flow l2 add 4 float
flow add st 2 float
serial l1 l2 1
"#;

    #[test]
    fn parses_sample() {
        let d = parse_ddg(SAMPLE).unwrap();
        assert_eq!(d.num_ops(), 5); // 4 + ⊥
        assert_eq!(d.values(RegType::FLOAT).len(), 3);
        assert_eq!(GreedyK::new().saturation(&d, RegType::FLOAT).saturation, 2);
    }

    #[test]
    fn model_violations_are_errors_not_panics() {
        // self-loop (flow and serial)
        let e = parse_ddg("op a load float\nflow a a 1 float\n").unwrap_err();
        assert!(e.to_string().contains("self-loop"), "{e}");
        assert_eq!(e.line, 2);
        let e = parse_ddg("op a load float\nserial a a 1\n").unwrap_err();
        assert!(e.to_string().contains("self-loop"), "{e}");
        // cycle through serial arcs
        let e = parse_ddg("op a load float\nop b store none\nserial a b 1\nserial b a 1\n")
            .unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // VLIW flow latency below δw(src) − δr(dst)
        let e = parse_ddg("target vliw\nop a load float\nop b store none\nflow a b 0 float\n")
            .unwrap_err();
        assert!(e.to_string().contains("latency"), "{e}");
        assert_eq!(e.line, 4);
        // flow through a type the source does not write
        let e = parse_ddg("op a load int\nop b store none\nflow a b 1 float\n").unwrap_err();
        assert!(e.to_string().contains("does not write"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn latencies_beyond_the_bound_are_rejected() {
        let ops = "op a load float\nop b store none\n";
        let parse = |arc: &str| parse_ddg(&format!("{ops}{arc}\n"));
        for arc in [
            "flow a b 2147483648 float",
            "serial a b 2147483648",
            "serial a b -2147483648",
        ] {
            let e = parse(arc).unwrap_err();
            assert_eq!(e.line, 3, "{arc}: {e}");
            assert!(e.message.contains("outside ±2147483647"), "{arc}: {e}");
        }
        for arc in [
            "flow a b 2147483647 float",
            "serial a b 2147483647",
            "serial a b -2147483647",
        ] {
            assert!(parse(arc).is_ok(), "{arc}");
        }
        // A flow latency that wraps the longest path of a chain: rejected
        // where it enters, instead of reported as a wrapped critical path.
        let e = parse_ddg(
            "op a load float\nop b fadd float\nop s store none\n\
             flow a b 9223372036854775000 float\nflow b s 4000 float\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 4, "{e}");
    }

    #[test]
    fn roundtrip_preserves_analysis() {
        let d = parse_ddg(SAMPLE).unwrap();
        let text = print_ddg(&d);
        let d2 = parse_ddg(&text).unwrap();
        assert_eq!(d.num_ops(), d2.num_ops());
        assert_eq!(d.graph().edge_count(), d2.graph().edge_count());
        assert_eq!(
            GreedyK::new().saturation(&d, RegType::FLOAT).saturation,
            GreedyK::new().saturation(&d2, RegType::FLOAT).saturation
        );
        assert_eq!(d.critical_path(), d2.critical_path());
    }

    #[test]
    fn vliw_and_multi_type_roundtrip() {
        let mut b = DdgBuilder::new(Target::vliw());
        let a = b.op("addr calc", OpClass::Addr, Some(RegType::INT));
        let l = b.op("ld", OpClass::Load, Some(RegType::FLOAT));
        let m = b.op("mul", OpClass::FloatMul, Some(RegType::FLOAT));
        // a post-increment load: an int address and a float value
        let p = b.op_multi("ld_inc", OpClass::Load, vec![RegType::INT, RegType::FLOAT]);
        b.serial(a, l, 1);
        b.flow(l, m, 4, RegType::FLOAT);
        b.flow(p, m, 4, RegType::FLOAT);
        let d = b.finish();
        let d2 = parse_ddg(&print_ddg(&d)).unwrap();
        assert_eq!(d2.num_ops(), d.num_ops());
        assert_eq!(d2.target().kind, d.target().kind);
        assert_eq!(d2.values(RegType::INT).len(), 2);
        for (n, n2) in d.graph().node_ids().zip(d2.graph().node_ids()) {
            assert_eq!(d2.graph().node(n2).writes, d.graph().node(n).writes);
        }
    }

    #[test]
    fn op_type_list_rejects_repeats_and_unknown_names() {
        let e = parse_ddg("op a load int,int").unwrap_err();
        assert!(e.message.contains("written twice"), "{e}");
        let e = parse_ddg("op a load int,none").unwrap_err();
        assert!(e.message.contains("unknown register type `none`"), "{e}");
    }

    #[test]
    fn error_reporting() {
        assert!(parse_ddg("").is_err());
        let e = parse_ddg("op a load float\nflow a b 1 float").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown op `b`"));
        let e = parse_ddg("op a wat float").unwrap_err();
        assert!(e.message.contains("unknown op class"));
        let e = parse_ddg("op a load float\nop a load float").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = parse_ddg("op a load float\ntarget vliw").unwrap_err();
        assert!(e.message.contains("precede"));
        let e = parse_ddg("bogus directive").unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn target_errors_name_the_token() {
        let e = parse_ddg("target risc\nop a load float\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(
            e.message,
            "unknown target `risc` (expected superscalar|vliw)"
        );
        let e = parse_ddg("target\nop a load float\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.message, "missing target name (expected superscalar|vliw)");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let d = parse_ddg("  # leading comment\n\nop x ialu int # trailing\n").unwrap();
        assert_eq!(d.values(RegType::INT).len(), 1);
    }

    /// The words a fuzzed line is drawn from, by the place they fill:
    /// op names, classes, written types, latencies (on both sides of the
    /// format's limits) and targets. Each pool ends with a word that is
    /// wrong in its place.
    const NAMES: [&str; 4] = ["a", "b", "c", "z"];
    const CLASSES: [&str; 6] = ["load", "fadd", "store", "ialu", "fmul", "int"];
    const TYPES: [&str; 7] = ["int", "float", "none", "int,float", "float", "-", "int,int"];
    const LATENCIES: [&str; 5] = ["0", "4", "1", "-3", "2147483648"];
    const TARGETS: [&str; 3] = ["vliw", "superscalar", "risc"];

    /// One line of the format: `directive`, then its words picked from the
    /// pools by the bytes of `pick` (leaving out each pool's wrong word
    /// when `valid`); `arity` 0 drops the last word and 1 adds one.
    fn fuzz_line(directive: &str, arity: usize, pick: usize, valid: bool) -> String {
        let word = |i: usize, pool: &[&'static str]| {
            let pool = &pool[..pool.len() - usize::from(valid)];
            pool[(pick >> (8 * i) & 0xff) % pool.len()]
        };
        let mut words = vec![directive];
        match directive {
            "op" => words.extend([word(0, &NAMES), word(1, &CLASSES), word(2, &TYPES)]),
            "flow" => words.extend([
                word(0, &NAMES),
                word(1, &NAMES),
                word(2, &LATENCIES),
                word(3, &TYPES),
            ]),
            "serial" => words.extend([word(0, &NAMES), word(1, &NAMES), word(2, &LATENCIES)]),
            "target" => words.push(word(0, &TARGETS)),
            _ => words.push(word(0, &NAMES)),
        }
        match arity {
            0 => {
                words.pop();
            }
            1 => words.push(word(4, &NAMES)),
            _ => {}
        }
        words.join(" ")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Fuzzing of the parser. An input is 2–3 well-formed `op` lines
        /// naming `a`, `b`, `c` in turn, then up to 8 lines of any
        /// directive, three in four of them without wrong words, so that
        /// inputs reach the checks behind the first token (self-loops,
        /// latency limits and floors, unwritten types, duplicate names),
        /// under at most one byte edit that overwrites, deletes or inserts
        /// an arbitrary byte, read as lossy UTF-8. Every input answers a
        /// DDG or a typed error, never a panic: the error names a line of
        /// the input (0 for the whole input) and says what is wrong, and a
        /// DDG is acyclic and prints back to text that parses to as many
        /// ops.
        #[test]
        fn arbitrary_bytes_answer_a_ddg_or_a_typed_error(
            ops in proptest::collection::vec(proptest::prelude::any::<usize>(), 2..4),
            lines in proptest::collection::vec((0usize..7, 0usize..16, proptest::prelude::any::<usize>()), 0..9),
            edits in proptest::collection::vec((0usize..3, proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()), 0..2),
        ) {
            let mut text = Vec::new();
            for (i, pick) in ops.into_iter().enumerate() {
                // the op's own name, then its class and types from `pick`
                text.push(fuzz_line("op", 2, pick << 8 | i, true));
            }
            for (d, arity, pick) in lines {
                let directive = ["flow", "flow", "serial", "serial", "op", "target", "#"][d];
                text.push(fuzz_line(directive, arity, pick, arity >= 4));
            }
            let mut bytes = (text.join("\n") + "\n").into_bytes();
            for (kind, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match parse_ddg(&text) {
                Ok(d) => {
                    proptest::prop_assert!(d.is_acyclic(), "{text:?} parsed to a cyclic DDG");
                    let again = parse_ddg(&print_ddg(&d));
                    proptest::prop_assert!(again.is_ok(), "{text:?} printed unparsable: {again:?}");
                    proptest::prop_assert_eq!(again.unwrap().num_ops(), d.num_ops());
                }
                Err(e) => {
                    proptest::prop_assert!(e.line <= text.lines().count(), "{text:?}: {e}");
                    proptest::prop_assert!(!e.message.is_empty(), "{text:?}");
                }
            }
        }
    }
}

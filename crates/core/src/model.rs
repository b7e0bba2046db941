//! DAG and processor model (Section 2 of the paper).
//!
//! A DDG `G = (V, E, δ)` carries the data dependences and any other serial
//! constraints of a loop body / basic block. Each statement writes **at most
//! one value per register type** (the paper's model restriction, footnote 2);
//! `V_{R,t}` is the set of nodes producing a value of type `t`, and
//! `E_{R,t}` the flow edges through such values.
//!
//! The processor model covers superscalar, VLIW and EPIC/IA64 targets via
//! two *architecturally visible* delay functions: a value of `u` is written
//! at `σ(u) + δw(u)` and an operand is read at `σ(u) + δr(u)`. Superscalar
//! targets have `δr = δw = 0`.
//!
//! A virtual **bottom node ⊥** closes the DAG: it consumes every exit value
//! (flow arcs) and is serialized after every node (serial arcs of latency
//! equal to the source operation's latency), so `⊥` is always scheduled
//! last and `σ(⊥)` is the total schedule time.

use rs_graph::{topo, DiGraph, EdgeId, NodeId};
use std::fmt;

/// A register type (the paper's `t ∈ T`, e.g. `{int, float}`).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegType(pub u8);

impl RegType {
    /// General-purpose / integer registers.
    pub const INT: RegType = RegType(0);
    /// Floating-point registers.
    pub const FLOAT: RegType = RegType(1);
    /// Branch / predicate registers (used by the EPIC-flavoured kernels).
    pub const BRANCH: RegType = RegType(2);

    /// Index for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The lowercase name that the `.ddg` format, the wire schema and the
    /// reports spell this type with — `"int"`, `"float"` or `"branch"` —
    /// or `None` for an unnamed index.
    pub fn name(self) -> Option<&'static str> {
        match self {
            RegType::INT => Some("int"),
            RegType::FLOAT => Some("float"),
            RegType::BRANCH => Some("branch"),
            _ => None,
        }
    }

    /// The named type spelled `name`: the inverse of [`RegType::name`].
    pub fn from_name(name: &str) -> Option<RegType> {
        [RegType::INT, RegType::FLOAT, RegType::BRANCH]
            .into_iter()
            .find(|t| t.name() == Some(name))
    }
}

/// The type's [`RegType::name`], or `t<index>` for an unnamed one.
impl fmt::Debug for RegType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(name) => f.write_str(name),
            None => write!(f, "t{}", self.0),
        }
    }
}

/// Functional class of an operation; drives default latencies/delays and the
/// downstream resource model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Integer ALU op (add, sub, logic).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating-point add/sub/compare.
    FloatAlu,
    /// Floating-point multiply.
    FloatMul,
    /// Floating-point divide / sqrt.
    FloatDiv,
    /// Register-to-register copy.
    Copy,
    /// Address computation (often folded into AGU).
    Addr,
    /// Anything else (no default latency; builder must supply edges).
    Other,
}

impl OpClass {
    /// All classes, for iteration in resource models.
    pub const ALL: [OpClass; 10] = [
        OpClass::Load,
        OpClass::Store,
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FloatAlu,
        OpClass::FloatMul,
        OpClass::FloatDiv,
        OpClass::Copy,
        OpClass::Addr,
        OpClass::Other,
    ];

    fn table_index(self) -> usize {
        match self {
            OpClass::Load => 0,
            OpClass::Store => 1,
            OpClass::IntAlu => 2,
            OpClass::IntMul => 3,
            OpClass::FloatAlu => 4,
            OpClass::FloatMul => 5,
            OpClass::FloatDiv => 6,
            OpClass::Copy => 7,
            OpClass::Addr => 8,
            OpClass::Other => 9,
        }
    }
}

/// Whether reading/writing offsets are architecturally visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// Sequential semantics, `δr = δw = 0` (also EPIC/IA64 per the paper:
    /// "in superscalar and EPIC/IA64 processors, δr and δw are equal to
    /// zero").
    Superscalar,
    /// Static-issue VLIW with visible pipeline steps: nonzero write offsets.
    Vliw,
}

/// A target processor description: per-class default latency and visible
/// read/write delays.
#[derive(Clone, Debug)]
pub struct Target {
    /// Offset semantics.
    pub kind: TargetKind,
    latency: [i64; 10],
    delta_w: [i64; 10],
    delta_r: [i64; 10],
}

impl Target {
    /// A generic 4-issue superscalar: `δr = δw = 0`, classic latencies
    /// (load 4, FP mul 4, FP div 17, …).
    pub fn superscalar() -> Self {
        Target {
            kind: TargetKind::Superscalar,
            //        Ld St Ia Im Fa Fm Fd Cp Ad Ot
            latency: [4, 1, 1, 3, 3, 4, 17, 1, 1, 1],
            delta_w: [0; 10],
            delta_r: [0; 10],
        }
    }

    /// A VLIW with visible pipelines: results are written `latency − 1`
    /// cycles after issue (`δw = latency − 1`), operands read at issue
    /// (`δr = 0`).
    pub fn vliw() -> Self {
        let latency: [i64; 10] = [4, 1, 1, 3, 3, 4, 17, 1, 1, 1];
        let mut delta_w = [0i64; 10];
        for (dw, &l) in delta_w.iter_mut().zip(&latency) {
            *dw = (l - 1).max(0);
        }
        Target {
            kind: TargetKind::Vliw,
            latency,
            delta_w,
            delta_r: [0; 10],
        }
    }

    /// Default result latency for a class.
    pub fn latency(&self, class: OpClass) -> i64 {
        self.latency[class.table_index()]
    }

    /// Write delay `δw` for a class.
    pub fn delta_w(&self, class: OpClass) -> i64 {
        self.delta_w[class.table_index()]
    }

    /// Read delay `δr` for a class.
    pub fn delta_r(&self, class: OpClass) -> i64 {
        self.delta_r[class.table_index()]
    }
}

/// An operation (DDG node payload).
#[derive(Clone, Debug)]
pub struct Operation {
    /// Human-readable mnemonic, e.g. `"load a[i]"`.
    pub name: String,
    /// Functional class.
    pub class: OpClass,
    /// Register types this operation defines a value of (at most one each).
    pub writes: Vec<RegType>,
    /// Result latency (cycles until a consumer may read).
    pub latency: i64,
    /// Write delay `δw(u)`.
    pub delta_w: i64,
    /// Read delay `δr(u)`.
    pub delta_r: i64,
    /// True only for the virtual bottom node `⊥`.
    pub is_bottom: bool,
}

/// Kind of a DDG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Flow dependence through a register of the given type (`E_{R,t}`).
    Flow(RegType),
    /// Any other precedence (anti/output/memory/control, or a serialization
    /// arc added by the reduction pass).
    Serial,
}

/// A data-dependence graph with its processor model, after
/// [`DdgBuilder::finish`] — closed by the bottom node and validated.
#[derive(Clone, Debug)]
pub struct Ddg {
    /// The underlying graph. Mutate only through [`Ddg::add_serial`] so the
    /// edge-kind table stays in sync.
    graph: DiGraph<Operation>,
    edge_kinds: Vec<EdgeKind>,
    bottom: NodeId,
    num_types: usize,
    target: Target,
}

impl Ddg {
    /// The underlying directed graph (read-only).
    pub fn graph(&self) -> &DiGraph<Operation> {
        &self.graph
    }

    /// The virtual bottom node `⊥`.
    pub fn bottom(&self) -> NodeId {
        self.bottom
    }

    /// The target processor description.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// All register types with at least one value.
    pub fn reg_types(&self) -> Vec<RegType> {
        (0..self.num_types as u8)
            .map(RegType)
            .filter(|&t| !self.values(t).is_empty())
            .collect()
    }

    /// Kind of an edge.
    pub fn edge_kind(&self, e: EdgeId) -> EdgeKind {
        self.edge_kinds[e.index()]
    }

    /// Number of operations, `⊥` included.
    pub fn num_ops(&self) -> usize {
        self.graph.node_count()
    }

    /// `V_{R,t}`: nodes writing a value of type `t` (never includes `⊥`).
    pub fn values(&self, t: RegType) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.values_into(t, &mut out);
        out
    }

    /// Allocation-reusing [`Ddg::values`]: clears `out` and fills it with
    /// `V_{R,t}` in ascending node order.
    pub fn values_into(&self, t: RegType, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.graph.node_ids().filter(|&n| {
                !self.graph.node(n).is_bottom && self.graph.node(n).writes.contains(&t)
            }),
        );
    }

    /// `Cons(u^t)`: consumers of `u`'s value of type `t`, deduplicated.
    pub fn consumers(&self, u: NodeId, t: RegType) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.consumers_into(u, t, &mut out);
        out
    }

    /// Allocation-reusing [`Ddg::consumers`]: clears `out` and fills it with
    /// the sorted, deduplicated consumers of `u`'s `t`-value.
    pub fn consumers_into(&self, u: NodeId, t: RegType, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.graph
                .out_edges(u)
                .filter(|&e| self.edge_kinds[e.index()] == EdgeKind::Flow(t))
                .map(|e| self.graph.dst(e)),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Write delay of `u`.
    #[inline]
    pub fn delta_w(&self, u: NodeId) -> i64 {
        self.graph.node(u).delta_w
    }

    /// Read delay of `u`.
    #[inline]
    pub fn delta_r(&self, u: NodeId) -> i64 {
        self.graph.node(u).delta_r
    }

    /// Adds a serialization arc (used by the reduction passes). Returns its
    /// id. Does **not** re-validate acyclicity; callers check.
    pub fn add_serial(&mut self, from: NodeId, to: NodeId, latency: i64) -> EdgeId {
        let e = self.graph.add_edge(from, to, latency);
        #[expect(
            clippy::disallowed_macros,
            reason = "DiGraph::add_edge allocates contiguous ids, so id == len holds by construction"
        )]
        {
            debug_assert_eq!(e.index(), self.edge_kinds.len());
        }
        self.edge_kinds.push(EdgeKind::Serial);
        e
    }

    /// Removes an edge added by [`Ddg::add_serial`].
    pub fn remove_edge(&mut self, e: EdgeId) {
        self.graph.remove_edge(e);
    }

    /// Whether the DDG (with any added serialization arcs) is acyclic.
    pub fn is_acyclic(&self) -> bool {
        topo::is_acyclic(&self.graph)
    }

    /// The paper's worst-case total schedule time `T = Σ_e δ(e)` (clamping
    /// negative latencies at zero), used to bound intLP domains.
    pub fn horizon(&self) -> i64 {
        self.graph.total_latency().max(1)
    }

    /// Critical path length (equals the longest path into `⊥`, by
    /// construction of the bottom arcs).
    pub fn critical_path(&self) -> i64 {
        rs_graph::paths::critical_path(&self.graph)
    }

    /// Renders the DDG as Graphviz DOT; `highlight` marks added arcs.
    pub fn to_dot(&self, name: &str, highlight: &[EdgeId]) -> String {
        let hl: Vec<usize> = highlight.iter().map(|e| e.index()).collect();
        rs_graph::dot::to_dot(&self.graph, name, |op| op.name.clone(), &hl)
    }
}

/// Incremental DDG construction; [`DdgBuilder::finish`] validates the model
/// restrictions and closes the DAG with `⊥`.
#[derive(Clone, Debug)]
pub struct DdgBuilder {
    target: Target,
    graph: DiGraph<Operation>,
    edge_kinds: Vec<EdgeKind>,
}

impl DdgBuilder {
    /// Starts building against a target.
    pub fn new(target: Target) -> Self {
        DdgBuilder {
            target,
            graph: DiGraph::new(),
            edge_kinds: Vec::new(),
        }
    }

    /// Adds an operation writing at most one value (of `writes` type).
    pub fn op(
        &mut self,
        name: impl Into<String>,
        class: OpClass,
        writes: Option<RegType>,
    ) -> NodeId {
        self.op_multi(name, class, writes.into_iter().collect())
    }

    /// Adds an operation defining several values of *distinct* types
    /// (the paper's model allows multi-type definitions as long as no type
    /// repeats).
    pub fn op_multi(
        &mut self,
        name: impl Into<String>,
        class: OpClass,
        writes: Vec<RegType>,
    ) -> NodeId {
        let mut seen = writes.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            writes.len(),
            "an operation may define at most one value per register type"
        );
        let latency = self.target.latency(class);
        self.graph.add_node(Operation {
            name: name.into(),
            class,
            writes,
            latency,
            delta_w: self.target.delta_w(class),
            delta_r: self.target.delta_r(class),
            is_bottom: false,
        })
    }

    /// Adds a flow dependence `from -> to` through a register of type `t`,
    /// with the producer's default latency.
    pub fn flow(&mut self, from: NodeId, to: NodeId, latency: i64, t: RegType) -> EdgeId {
        assert!(
            self.graph.node(from).writes.contains(&t),
            "flow edge source {} does not write a {:?} value",
            self.graph.node(from).name,
            t
        );
        let min = self.graph.node(from).delta_w - self.graph.node(to).delta_r;
        assert!(
            latency >= min,
            "flow latency {} < δw(src) − δr(dst) = {} would allow reading before the write",
            latency,
            min
        );
        let e = self.graph.add_edge(from, to, latency);
        self.edge_kinds.push(EdgeKind::Flow(t));
        e
    }

    /// Flow edge with the producer's default latency.
    pub fn flow_default(&mut self, from: NodeId, to: NodeId, t: RegType) -> EdgeId {
        let lat = self.graph.node(from).latency;
        self.flow(from, to, lat, t)
    }

    /// Re-adds an existing [`Operation`] verbatim (used by passes that
    /// rebuild a DDG, e.g. spill insertion). The bottom flag is cleared —
    /// `finish` will insert a fresh `⊥`.
    pub fn add_operation(&mut self, mut op: Operation) -> NodeId {
        op.is_bottom = false;
        self.graph.add_node(op)
    }

    /// Adds a serial (non-flow) precedence edge.
    pub fn serial(&mut self, from: NodeId, to: NodeId, latency: i64) -> EdgeId {
        let e = self.graph.add_edge(from, to, latency);
        self.edge_kinds.push(EdgeKind::Serial);
        e
    }

    /// Whether the graph built so far is acyclic. [`DdgBuilder::finish`]
    /// panics on cycles; validating parsers check first.
    pub fn is_acyclic(&self) -> bool {
        topo::is_acyclic(&self.graph)
    }

    /// The register types `n` defines a value of. [`DdgBuilder::flow`]
    /// panics when the source does not write the flow's type; validating
    /// parsers check first.
    pub fn writes(&self, n: NodeId) -> &[RegType] {
        &self.graph.node(n).writes
    }

    /// The minimum valid latency of a flow edge `from -> to`
    /// (`δw(from) − δr(to)`); [`DdgBuilder::flow`] panics below it.
    pub fn min_flow_latency(&self, from: NodeId, to: NodeId) -> i64 {
        self.graph.node(from).delta_w - self.graph.node(to).delta_r
    }

    /// Validates the DDG and closes it with the bottom node `⊥`:
    /// exit values (values without consumers) get a flow arc to `⊥`, and
    /// every other node gets a serial arc to `⊥` with its own latency.
    ///
    /// # Panics
    /// If the graph is cyclic.
    pub fn finish(mut self) -> Ddg {
        assert!(
            topo::is_acyclic(&self.graph),
            "a DDG must be acyclic: {:?}",
            topo::cycle_witness(&self.graph)
        );
        let num_types = self
            .graph
            .node_ids()
            .flat_map(|n| self.graph.node(n).writes.iter().map(|t| t.0 as usize + 1))
            .max()
            .unwrap_or(0);

        let bottom = self.graph.add_node(Operation {
            name: "⊥".into(),
            class: OpClass::Other,
            writes: Vec::new(),
            latency: 0,
            delta_w: 0,
            delta_r: 0,
            is_bottom: true,
        });

        let nodes: Vec<NodeId> = self.graph.node_ids().filter(|&n| n != bottom).collect();
        for u in nodes {
            let op = self.graph.node(u).clone();
            let mut linked = false;
            for &t in &op.writes {
                let has_consumer = self
                    .graph
                    .out_edges(u)
                    .any(|e| self.edge_kinds[e.index()] == EdgeKind::Flow(t));
                if !has_consumer {
                    // exit value: ⊥ consumes it
                    let e = self.graph.add_edge(u, bottom, op.latency.max(0));
                    self.edge_kinds.push(EdgeKind::Flow(t));
                    #[expect(
                        clippy::disallowed_macros,
                        reason = "DiGraph::add_edge allocates contiguous ids, so id == len holds by construction"
                    )]
                    {
                        debug_assert_eq!(e.index() + 1, self.edge_kinds.len());
                    }
                    linked = true;
                }
            }
            if !linked {
                // serial arc with the source operation's latency (paper)
                let e = self.graph.add_edge(u, bottom, op.latency.max(0));
                self.edge_kinds.push(EdgeKind::Serial);
                #[expect(
                    clippy::disallowed_macros,
                    reason = "DiGraph::add_edge allocates contiguous ids, so id == len holds by construction"
                )]
                {
                    debug_assert_eq!(e.index() + 1, self.edge_kinds.len());
                }
            }
        }

        Ddg {
            graph: self.graph,
            edge_kinds: self.edge_kinds,
            bottom,
            num_types,
            target: self.target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ddg() -> Ddg {
        let mut b = DdgBuilder::new(Target::superscalar());
        let l1 = b.op("l1", OpClass::Load, Some(RegType::FLOAT));
        let l2 = b.op("l2", OpClass::Load, Some(RegType::FLOAT));
        let add = b.op("add", OpClass::FloatAlu, Some(RegType::FLOAT));
        let st = b.op("st", OpClass::Store, None);
        b.flow(l1, add, 4, RegType::FLOAT);
        b.flow(l2, add, 4, RegType::FLOAT);
        b.flow(add, st, 3, RegType::FLOAT);
        b.finish()
    }

    #[test]
    fn bottom_closure() {
        let d = small_ddg();
        assert_eq!(d.num_ops(), 5); // 4 ops + ⊥
        let bot = d.bottom();
        assert!(d.graph().node(bot).is_bottom);
        // every non-bottom node reaches ⊥
        let lp = rs_graph::paths::longest_to(d.graph(), bot);
        for n in d.graph().node_ids() {
            assert!(lp[n.index()].is_some(), "{:?} must reach ⊥", n);
        }
        // ⊥ scheduled last in any topological order
        let order = topo::topo_sort(d.graph()).unwrap();
        assert_eq!(*order.last().unwrap(), bot);
    }

    #[test]
    fn values_and_consumers() {
        let d = small_ddg();
        let vals = d.values(RegType::FLOAT);
        assert_eq!(vals.len(), 3); // l1, l2, add (store writes nothing)
        assert!(d.values(RegType::INT).is_empty());
        let add = NodeId(2);
        let cons = d.consumers(NodeId(0), RegType::FLOAT);
        assert_eq!(cons, vec![add]);
        // add's value flows to the store only
        let cons_add = d.consumers(add, RegType::FLOAT);
        assert_eq!(cons_add, vec![NodeId(3)]);
    }

    #[test]
    fn exit_value_consumed_by_bottom() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let d = b.finish();
        let cons = d.consumers(v, RegType::INT);
        assert_eq!(cons, vec![d.bottom()]);
    }

    #[test]
    fn critical_path_counts_latency_into_bottom() {
        let d = small_ddg();
        // l -4-> add -3-> st -1-> ⊥
        assert_eq!(d.critical_path(), 8);
        assert!(d.horizon() >= d.critical_path());
    }

    #[test]
    fn vliw_delays() {
        let t = Target::vliw();
        assert_eq!(t.delta_w(OpClass::Load), 3);
        assert_eq!(t.delta_r(OpClass::Load), 0);
        assert_eq!(t.delta_w(OpClass::Store), 0);
    }

    #[test]
    fn add_serial_keeps_kind_table() {
        let mut d = small_ddg();
        let e = d.add_serial(NodeId(0), NodeId(1), 1);
        assert_eq!(d.edge_kind(e), EdgeKind::Serial);
        assert!(d.is_acyclic());
        d.remove_edge(e);
        assert!(d.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "does not write")]
    fn flow_requires_written_type() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let a = b.op("a", OpClass::Store, None);
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        b.flow(a, c, 1, RegType::INT);
    }

    #[test]
    #[should_panic(expected = "at most one value per register type")]
    fn duplicate_type_definition_rejected() {
        let mut b = DdgBuilder::new(Target::superscalar());
        b.op_multi("bad", OpClass::IntAlu, vec![RegType::INT, RegType::INT]);
    }

    #[test]
    fn multi_type_definition_accepted() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let n = b.op_multi(
            "divmod",
            OpClass::IntMul,
            vec![RegType::INT, RegType::FLOAT],
        );
        let d = b.finish();
        assert!(d.values(RegType::INT).contains(&n));
        assert!(d.values(RegType::FLOAT).contains(&n));
        assert_eq!(d.num_types, 2);
        assert_eq!(d.reg_types().len(), 2);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_ddg_rejected() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let a = b.op("a", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        b.flow(a, c, 1, RegType::INT);
        b.serial(c, a, 0);
        b.finish();
    }

    #[test]
    fn node_with_consumed_value_gets_no_extra_bottom_arc_but_store_does() {
        let d = small_ddg();
        let st = NodeId(3);
        // the store writes nothing: must have a serial arc to ⊥
        let to_bottom: Vec<_> = d
            .graph()
            .out_edges(st)
            .filter(|&e| d.graph().dst(e) == d.bottom())
            .collect();
        assert_eq!(to_bottom.len(), 1);
        assert_eq!(d.edge_kind(to_bottom[0]), EdgeKind::Serial);
    }
}

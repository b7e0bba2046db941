//! Potential-killing analysis (from Touati's CC'01 framework \[14\]).
//!
//! A consumer `v ∈ Cons(u^t)` is a **potential killer** of `u^t` if some
//! valid schedule makes `v` the last reader. Consumer `v` can never be last
//! if another consumer `v'` always reads at least as late, which is the case
//! iff there is a path `v ⇝ v'` with
//! `lp(v, v') ≥ δr(v) − δr(v')` (then `σ(v') + δr(v') ≥ σ(v) + δr(v)` in
//! every schedule). `pkill(u^t)` is the set of maximal consumers under this
//! *always-reads-before* preorder.
//!
//! The same machinery yields the Section-3 intLP optimization predicate
//! [`never_simultaneously_alive`]: two values whose lifetimes can never
//! interfere need no interference binary.

use crate::model::{Ddg, RegType};
use rs_graph::paths::LongestPaths;
use rs_graph::NodeId;

/// Sentinel for "this node is not a value of the analysed type".
const NO_SLOT: u32 = u32::MAX;

/// Potential-killing structure of one register type.
///
/// Stored flat (CSR over the ascending value list plus a dense node → slot
/// table) rather than as a `BTreeMap`: the saturation engine consults it in
/// its innermost loops, and the flat layout makes rebuilds allocation-free
/// in the steady state ([`potential_killers_into`]). Iteration order is the
/// ascending node order the old map-based layout had.
#[derive(Clone, Debug, Default)]
pub struct PKill {
    /// The register type analysed.
    pub reg_type: RegType,
    /// The values, ascending.
    values: Vec<NodeId>,
    /// CSR offsets into `killers`, one per value plus the terminator.
    offsets: Vec<u32>,
    /// Concatenated `pkill(u)` slices, each sorted by node id.
    killers: Vec<NodeId>,
    /// Dense node index → slot in `values` (or [`NO_SLOT`]).
    slot: Vec<u32>,
    /// Consumer scratch for construction.
    cons: Vec<NodeId>,
}

impl PKill {
    /// The values of the analysed type, ascending.
    pub fn values(&self) -> &[NodeId] {
        &self.values
    }

    /// Number of values covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value is covered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Potential killers of `u`. Panics if `u` is not a value of this type.
    pub fn of(&self, u: NodeId) -> &[NodeId] {
        self.get(u).expect("not a value of the analysed type")
    }

    /// Potential killers of `u`, or `None` if `u` is not a covered value.
    pub fn get(&self, u: NodeId) -> Option<&[NodeId]> {
        let s = *self.slot.get(u.index())?;
        if s == NO_SLOT {
            return None;
        }
        let (lo, hi) = (self.offsets[s as usize], self.offsets[s as usize + 1]);
        Some(&self.killers[lo as usize..hi as usize])
    }

    /// Iterates `(value, pkill(value))` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        self.values.iter().enumerate().map(|(i, &u)| {
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            (u, &self.killers[lo as usize..hi as usize])
        })
    }

    /// Values with more than one potential killer — the decision points of
    /// the exact enumeration.
    pub fn ambiguous_values(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, ks)| ks.len() > 1)
            .map(|(u, _)| u)
            .collect()
    }

    /// Number of killing functions (product of `|pkill(u)|`), saturating.
    pub fn killing_function_count(&self) -> u128 {
        self.iter()
            .map(|(_, ks)| ks.len() as u128)
            .fold(1u128, |a, b| a.saturating_mul(b))
    }
}

/// `v` always reads no later than `v'` (the ⪯ preorder on consumers):
/// there is a path `v ⇝ v'` with `lp(v, v') ≥ δr(v) − δr(v')`.
pub fn always_reads_before(ddg: &Ddg, lp: &LongestPaths, v: NodeId, v_prime: NodeId) -> bool {
    if v == v_prime {
        return false;
    }
    match lp.lp(v, v_prime) {
        Some(d) => d >= ddg.delta_r(v) - ddg.delta_r(v_prime),
        None => false,
    }
}

/// Computes the potential-killing structure for type `t`.
pub fn potential_killers(ddg: &Ddg, t: RegType, lp: &LongestPaths) -> PKill {
    let mut pk = PKill::default();
    potential_killers_into(ddg, t, lp, &mut pk);
    pk
}

/// Allocation-reusing [`potential_killers`]: rebuilds `out` in place. In the
/// steady state of a batch run no buffer reallocates.
pub fn potential_killers_into(ddg: &Ddg, t: RegType, lp: &LongestPaths, out: &mut PKill) {
    out.reg_type = t;
    ddg.values_into(t, &mut out.values);
    out.offsets.clear();
    out.offsets.push(0);
    out.killers.clear();
    out.slot.clear();
    out.slot.resize(ddg.num_ops(), NO_SLOT);
    // Split borrows: the construction reads `values`/`cons` while pushing
    // into `killers`/`offsets`/`slot`.
    let PKill {
        values,
        offsets,
        killers,
        slot,
        cons,
        ..
    } = out;
    for (i, &u) in values.iter().enumerate() {
        slot[u.index()] = i as u32;
        ddg.consumers_into(u, t, cons);
        killers.extend(cons.iter().copied().filter(|&v| {
            !cons
                .iter()
                .any(|&v2| v2 != v && always_reads_before(ddg, lp, v, v2))
        }));
        #[expect(
            clippy::disallowed_macros,
            reason = "the ⊥-closure in Ddg::from_builder guarantees every value a consumer, hence a killer"
        )]
        {
            debug_assert!(
                killers.len() > offsets[i] as usize,
                "every value has at least one potential killer after ⊥-closure"
            );
        }
        offsets.push(killers.len() as u32);
    }
}

/// The Section-3 optimization: values `u^t` and `v^t` can **never** be
/// simultaneously alive iff one is always defined after the other's death:
///
/// ```text
///   ∀v' ∈ Cons(v^t): lp(v', u) ≥ δr(v') − δw(u)
/// ∨ ∀u' ∈ Cons(u^t): lp(u', v) ≥ δr(u') − δw(v)
/// ```
pub fn never_simultaneously_alive(
    ddg: &Ddg,
    t: RegType,
    lp: &LongestPaths,
    u: NodeId,
    v: NodeId,
) -> bool {
    let after = |x: NodeId, y: NodeId| {
        // every consumer of x's value reads before y's definition
        ddg.consumers(x, t).iter().all(|&c| {
            if c == y {
                // y itself consuming x: y's definition is at σ(y)+δw(y) and
                // the read at σ(y)+δr(y); x dies no later than y defines iff
                // δr(c) ≤ δw(y).
                ddg.delta_r(c) <= ddg.delta_w(y)
            } else {
                matches!(lp.lp(c, y), Some(d) if d >= ddg.delta_r(c) - ddg.delta_w(y))
            }
        })
    };
    after(v, u) || after(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DdgBuilder, OpClass, Target};

    /// v -> {c1 -> c2} : c1 always reads before c2, so pkill(v) = {c2}.
    #[test]
    fn chained_consumers_leave_one_killer() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let c1 = b.op("c1", OpClass::IntAlu, Some(RegType::INT));
        let c2 = b.op("c2", OpClass::Store, None);
        b.flow(v, c1, 1, RegType::INT);
        b.flow(v, c2, 1, RegType::INT);
        b.flow(c1, c2, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        assert_eq!(pk.of(v), &[c2]);
        assert!(pk.ambiguous_values().is_empty() || !pk.ambiguous_values().contains(&v));
    }

    /// Two incomparable consumers are both potential killers.
    #[test]
    fn parallel_consumers_both_kill() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let c1 = b.op("c1", OpClass::Store, None);
        let c2 = b.op("c2", OpClass::Store, None);
        b.flow(v, c1, 1, RegType::INT);
        b.flow(v, c2, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        assert_eq!(pk.of(v).len(), 2);
        assert_eq!(pk.ambiguous_values(), vec![v]);
        assert_eq!(pk.killing_function_count(), 2);
    }

    /// An exit value is killed only by ⊥.
    #[test]
    fn exit_value_killed_by_bottom() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        assert_eq!(pk.of(v), &[d.bottom()]);
    }

    /// A consumer also flowing into ⊥-reachable paths: the consumer chained
    /// before ⊥ is dominated when a serial path with sufficient latency
    /// exists.
    #[test]
    fn bottom_dominates_interior_consumer() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        b.flow(v, c, 1, RegType::INT);
        let d = b.finish();
        // v's only consumer is c; c reaches ⊥, but ⊥ doesn't consume v, so
        // pkill(v) = {c}.
        let lp = LongestPaths::new(d.graph());
        let pk = potential_killers(&d, RegType::INT, &lp);
        assert_eq!(pk.of(v), &[c]);
    }

    #[test]
    fn never_alive_for_chained_values() {
        // u -> c -> v: u is dead (read by c) before v is defined
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        b.flow(u, c, 1, RegType::INT);
        b.flow(c, v, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        assert!(never_simultaneously_alive(&d, RegType::INT, &lp, u, v));
        // u and c can never be alive together either: u's only reader IS c,
        // so u dies exactly as c's value is born (half-open intervals touch)
        assert!(never_simultaneously_alive(&d, RegType::INT, &lp, u, c));
    }

    #[test]
    fn value_with_late_reader_interferes_with_consumer_value() {
        // u read by c AND by a later store s: u can outlive c's definition.
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let c = b.op("c", OpClass::IntAlu, Some(RegType::INT));
        let s = b.op("s", OpClass::Store, None);
        b.flow(u, c, 1, RegType::INT);
        b.flow(u, s, 1, RegType::INT);
        b.flow(c, s, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        assert!(!never_simultaneously_alive(&d, RegType::INT, &lp, u, c));
    }

    #[test]
    fn direct_consumer_value_not_simultaneous_superscalar() {
        // u -> v where v produces its own value: with δr = δw = 0 the
        // half-open intervals touch but do not interfere.
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        b.flow(u, v, 1, RegType::INT);
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        // u's only consumer is v itself: δr(v)=0 ≤ δw(v)=0
        assert!(never_simultaneously_alive(&d, RegType::INT, &lp, u, v));
    }

    #[test]
    fn independent_values_can_be_alive() {
        let mut b = DdgBuilder::new(Target::superscalar());
        let u = b.op("u", OpClass::IntAlu, Some(RegType::INT));
        let v = b.op("v", OpClass::IntAlu, Some(RegType::INT));
        let _ = u;
        let _ = v;
        let d = b.finish();
        let lp = LongestPaths::new(d.graph());
        assert!(!never_simultaneously_alive(&d, RegType::INT, &lp, u, v));
    }
}

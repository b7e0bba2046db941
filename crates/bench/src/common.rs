//! Shared experiment plumbing: the evaluation corpus and a deterministic
//! parallel map. Reports are written by `rs_serve::write_report`.

use rs_core::model::{Ddg, RegType, Target};
use rs_kernels::random::{random_ddg, RandomDagConfig};

/// A DAG under evaluation: name + register type to analyse.
pub struct Case {
    /// Display name, e.g. `"lll1/float"` or `"rand16/seed3"`.
    pub name: String,
    /// The DDG.
    pub ddg: Ddg,
    /// Register type under analysis.
    pub reg_type: RegType,
}

/// The named kernels, one case per register type with ≥ 2 values.
pub fn kernel_cases(target: Target) -> Vec<Case> {
    let mut cases = Vec::new();
    for k in rs_kernels::corpus() {
        let ddg = (k.build)(target.clone());
        for t in ddg.reg_types() {
            if ddg.values(t).len() >= 2 {
                cases.push(Case {
                    name: format!("{}/{:?}", k.name, t),
                    ddg: ddg.clone(),
                    reg_type: t,
                });
            }
        }
    }
    cases
}

/// Random cases: `count` DAGs per size in `sizes`, float type only.
pub fn random_cases(sizes: &[usize], count: usize, target: Target) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in sizes {
        for i in 0..count {
            let cfg = RandomDagConfig::sized(n, 0x5EED_0000 + (n as u64) * 1000 + i as u64);
            let ddg = random_ddg(&cfg, target.clone());
            if ddg.values(RegType::FLOAT).len() >= 2 {
                cases.push(Case {
                    name: format!("rand{n}/s{i}"),
                    ddg,
                    reg_type: RegType::FLOAT,
                });
            }
        }
    }
    cases
}

/// Order-preserving parallel map on one worker per available core — the
/// experiments are embarrassingly parallel per DAG.
pub fn par_map<T: Send, O: Send>(items: Vec<T>, f: impl Fn(T) -> O + Sync) -> Vec<O> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    rs_core::par_map(&mut vec![(); cores], items, |(), item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cases_cover_corpus() {
        let cases = kernel_cases(Target::superscalar());
        assert!(cases.len() >= 13, "got {}", cases.len());
        // names unique
        let mut names: Vec<_> = cases.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cases.len());
    }

    #[test]
    fn random_cases_deterministic() {
        let a = random_cases(&[12], 3, Target::superscalar());
        let b = random_cases(&[12], 3, Target::superscalar());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ddg.graph().edge_count(), y.ddg.graph().edge_count());
        }
    }
}

//! Benchmarks for the graph substrate: transitive closure, maximum
//! matching / antichains, and longest paths — the inner loops of every
//! saturation analysis.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rs_core::model::Target;
use rs_graph::antichain::{max_antichain_into, AntichainScratch};
use rs_graph::closure::TransitiveClosure;
use rs_graph::paths::LongestPaths;
use rs_kernels::random::{random_ddg, RandomDagConfig};

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("transitive_closure");
    for &n in &[16usize, 32, 64, 128] {
        let ddg = random_ddg(&RandomDagConfig::sized(n, 7), Target::superscalar());
        group.bench_with_input(BenchmarkId::from_parameter(n), &ddg, |b, ddg| {
            b.iter(|| TransitiveClosure::new(black_box(ddg.graph())));
        });
    }
    group.finish();
}

fn bench_longest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_longest_paths");
    for &n in &[16usize, 32, 64, 128] {
        let ddg = random_ddg(&RandomDagConfig::sized(n, 11), Target::superscalar());
        group.bench_with_input(BenchmarkId::from_parameter(n), &ddg, |b, ddg| {
            b.iter(|| LongestPaths::new(black_box(ddg.graph())));
        });
    }
    group.finish();
}

fn bench_antichain(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_antichain");
    for &n in &[16usize, 32, 64] {
        let ddg = random_ddg(&RandomDagConfig::sized(n, 13), Target::superscalar());
        let tc = TransitiveClosure::new(ddg.graph());
        let nodes: Vec<_> = ddg.graph().node_ids().collect();
        let mut scratch = AntichainScratch::new();
        let mut antichain = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &nodes, |b, nodes| {
            b.iter(|| {
                max_antichain_into(
                    black_box(nodes),
                    |u, v| tc.reaches(u, v),
                    &mut scratch,
                    &mut antichain,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure, bench_longest_paths, bench_antichain);
criterion_main!(benches);

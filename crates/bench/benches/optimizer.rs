//! E10 — the §5 algebraic identities as an optimizer, measured.
//!
//! The canonical win: `τ_L(σ-WHEN(p)(π_X(r)))` rewritten so the slice runs
//! first. Execution time of the naive vs the optimized expression — both
//! planned against an index-less source, so only the rewrite differs —
//! swept over slice selectivity (narrow slices gain most).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrdm_bench::{gen_relation, WorkloadSpec};
use hrdm_query::{build_executor, optimize, parse_expr, plan, ExecOptions, Expr, QueryStream};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    let r = gen_relation(&WorkloadSpec {
        tuples: 300,
        changes: 32,
        era: 10_000,
        ..Default::default()
    });
    // A bare map: no indexes, every scan sequential.
    let mut src = BTreeMap::new();
    src.insert("r".to_string(), r);
    let opts = ExecOptions::default();
    let execute = |e: &Expr| {
        QueryStream::new(build_executor(&plan(e, &src), &src, &opts), &opts)
            .unwrap()
            .collect_relation()
            .unwrap()
    };

    for &(label, width) in &[("narrow", 100i64), ("medium", 2_000), ("wide", 10_000)] {
        let text = format!("TIMESLICE [0..{width}] (SELECT-WHEN (V < 500) (PROJECT [K, V] (r)))");
        let naive = parse_expr(&text).unwrap();
        let (optimized, trace) = optimize(&naive);
        assert!(!trace.is_empty());

        group.bench_with_input(BenchmarkId::new("naive", label), &width, |b, _| {
            b.iter(|| black_box(execute(black_box(&naive))))
        });
        group.bench_with_input(BenchmarkId::new("optimized", label), &width, |b, _| {
            b.iter(|| black_box(execute(black_box(&optimized))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_optimizer
}
criterion_main!(benches);

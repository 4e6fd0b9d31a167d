//! E13 — indexed vs sequential access paths.
//!
//! The first physical access methods (`hrdm-index`): a lifespan interval
//! index and a constant-key index. Each benchmark pairs a sequential-scan
//! operator with its index-driven counterpart at 1k / 10k / 100k tuples:
//!
//! * `timeslice/*` — `τ_L` over a narrow window: full scan restrict vs
//!   lifespan-index candidates then restrict;
//! * `select/*` — key-equality `σIF(K = k, EXISTS)`: full scan vs key-index
//!   probe (via the query planner's access-path selection);
//! * `join/*` — NATURAL-JOIN with a keyed probe side: nested loop vs index
//!   nested loop.
//!
//! Set `HRDM_BENCH_FAST=1` for the CI smoke mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrdm_bench::{gen_relation, WorkloadSpec};
use hrdm_core::algebra::{natural_join, select_if, timeslice, Predicate, Quantifier};
use hrdm_core::prelude::*;
use hrdm_index::RelationIndexes;
use hrdm_query::{
    build_executor, optimize, parse_expr, plan, ExecOptions, IndexedRelations, Plan, QueryStream,
};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Tuple counts for the scan-vs-index comparison. `HRDM_BENCH_FAST` drops
/// the 100k point to keep CI smoke runs quick.
fn sizes() -> Vec<usize> {
    if std::env::var_os("HRDM_BENCH_FAST").is_some_and(|v| v != "0") {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000]
    }
}

fn spec(tuples: usize) -> WorkloadSpec {
    WorkloadSpec {
        tuples,
        era: 1_000,
        changes: 4,
        fragments: 2,
        ..Default::default()
    }
}

/// Runs a physical plan through its executor tree and collects the answer.
fn execute(p: &Plan, src: &IndexedRelations) -> Relation {
    let opts = ExecOptions::default();
    QueryStream::new(build_executor(p, src, &opts), &opts)
        .unwrap()
        .collect_relation()
        .unwrap()
}

/// A narrow early window: tuple lifespans start at jittered offsets, so
/// only a small fraction overlaps `[0, 10]` — the selective case an index
/// exists for.
fn window() -> Lifespan {
    Lifespan::interval(0, 10)
}

fn bench_indexed_timeslice(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_timeslice");
    for &n in &sizes() {
        let r = gen_relation(&spec(n));
        let idx = RelationIndexes::build(&r);
        let w = window();
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| black_box(timeslice(black_box(&r), black_box(&w))))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                let candidates = idx.lifespan().overlapping(black_box(&w));
                black_box(timeslice(&r.subset_at_positions(&candidates), &w))
            })
        });
    }
    group.finish();
}

fn bench_indexed_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_select");
    for &n in &sizes() {
        let r = gen_relation(&spec(n));
        let probe = (n / 2) as i64;
        let pred = Predicate::eq_value("K", probe);
        let mut map = BTreeMap::new();
        map.insert("emp".to_string(), r.clone());
        let src = IndexedRelations::new(map);
        let planned = {
            let e = parse_expr(&format!("SELECT-IF (K = {probe}, EXISTS) (emp)")).unwrap();
            plan(&optimize(&e).0, &src)
        };
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| black_box(select_if(black_box(&r), &pred, Quantifier::Exists, None).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| black_box(execute(black_box(&planned), &src)))
        });
    }
    group.finish();
}

/// A small probe-side relation joined against a large keyed build side:
/// the shape where an index nested loop beats the quadratic scan.
fn bench_indexed_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_join");
    for &n in &sizes() {
        // Right: n keyed employees. Left: 64 tuples sharing the key
        // attribute K (constant-valued), each matching one employee.
        let right = gen_relation(&spec(n));
        let left_scheme = Scheme::builder()
            .key_attr("K", ValueKind::Int, Lifespan::interval(0, 1_000))
            .build()
            .unwrap();
        let left = Relation::with_tuples(
            left_scheme.clone(),
            (0..64).map(|i| {
                Tuple::builder(Lifespan::interval(0, 1_000))
                    .constant("K", (i * (n as i64 / 64)).min(n as i64 - 1))
                    .finish(&left_scheme)
                    .unwrap()
            }),
        )
        .unwrap();

        let mut map = BTreeMap::new();
        map.insert("probe".to_string(), left.clone());
        map.insert("emp".to_string(), right.clone());
        let src = IndexedRelations::new(map);
        let planned = {
            let e = parse_expr("probe NATJOIN emp").unwrap();
            plan(&optimize(&e).0, &src)
        };

        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| black_box(natural_join(black_box(&left), black_box(&right)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| black_box(execute(black_box(&planned), &src)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets = bench_indexed_timeslice, bench_indexed_select, bench_indexed_join
}
criterion_main!(benches);

//! E15 — lifespan-partitioned storage: pruning and dirty-only checkpoints.
//!
//! A 100k-tuple relation cut into 64 chronon-range partitions
//! (`PartitionPolicy::SpanLog2(14)` over an era of 2^20 chronons) against
//! the unpartitioned reference (`span = ∞`):
//!
//! * `partition_timeslice/*` — planned TIME-SLICE at selectivities of 1,
//!   4, 16, and 64 partitions: latency should track the number of touched
//!   partitions, not the relation size;
//! * `partition_checkpoint/*` — checkpoint after dirtying a single
//!   partition vs after dirtying all 64: the dirty-only rewrite plus
//!   hard links vs a full rewrite.
//!
//! The workload (scheme, jittered tuples, populate) is the shared
//! [`hrdm_bench::partition_fixture`], the same dataset the gated
//! `bench-json` entries measure. Set `HRDM_BENCH_FAST=1` for the CI smoke
//! mode (smaller relation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrdm_bench::partition_fixture::{populated, scheme, tup, tup_at, SPAN_LOG2};
use hrdm_query::{parse_query, run_query, Query};
use hrdm_storage::{Database, PartitionPolicy};
use std::hint::black_box;
use std::path::PathBuf;

fn fast() -> bool {
    std::env::var_os("HRDM_BENCH_FAST").is_some_and(|v| v != "0")
}

fn tuples() -> i64 {
    if fast() {
        10_000
    } else {
        100_000
    }
}

/// A window starting at partition 0 and covering exactly `parts` nominal
/// partition spans — `parts = 64` covers the whole populated era.
fn window_query(parts: u32) -> Query {
    let hi = (i64::from(parts) << SPAN_LOG2) - 1;
    parse_query(&format!("TIMESLICE [0..{hi}] (r)")).unwrap()
}

fn bench_pruned_timeslice(c: &mut Criterion) {
    let part = populated(PartitionPolicy::SpanLog2(SPAN_LOG2), tuples());
    let flat = populated(PartitionPolicy::Unpartitioned, tuples());
    let (psnap, fsnap) = (part.snapshot(), flat.snapshot());
    let mut group = c.benchmark_group("partition_timeslice");
    for parts in [1u32, 4, 16, 64] {
        let q = window_query(parts);
        group.bench_with_input(BenchmarkId::new("pruned", parts), &parts, |b, _| {
            b.iter(|| black_box(run_query(black_box(&q), &*psnap).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("unpartitioned", parts), &parts, |b, _| {
            b.iter(|| black_box(run_query(black_box(&q), &*fsnap).unwrap()))
        });
    }
    group.finish();
}

fn bench_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("hrdm-bench-part-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn bench_dirty_checkpoint(c: &mut Criterion) {
    let n = tuples() / 5; // keep the setup WAL workload reasonable
    let mut group = c.benchmark_group("partition_checkpoint");
    group.sample_size(10);
    for (label, dirty_all) in [("one_dirty_partition", false), ("all_dirty", true)] {
        let dir = bench_dir(label);
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
        db.create_relation("r", scheme()).unwrap();
        let batch: Vec<hrdm_storage::WalRecord> = (0..n)
            .map(|k| hrdm_storage::WalRecord::Insert {
                relation: "r".to_string(),
                tuple: tup(k),
            })
            .collect();
        for r in db.commit_batch(batch) {
            r.unwrap();
        }
        db.checkpoint().unwrap();
        let mut k = 10_000_000i64;
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| {
                if dirty_all {
                    // One insert born in each of the 64 partitions: every
                    // partition is dirty, the checkpoint rewrites all.
                    let batch: Vec<hrdm_storage::WalRecord> = (0i64..64)
                        .map(|p| {
                            k += 1;
                            hrdm_storage::WalRecord::Insert {
                                relation: "r".to_string(),
                                tuple: tup_at(k, p << SPAN_LOG2),
                            }
                        })
                        .collect();
                    for r in db.commit_batch(batch) {
                        r.unwrap();
                    }
                } else {
                    // A single insert dirties exactly one partition.
                    k += 1;
                    db.insert("r", tup(k)).unwrap();
                }
                db.checkpoint().unwrap();
            })
        });
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(benches, bench_pruned_timeslice, bench_dirty_checkpoint);
criterion_main!(benches);

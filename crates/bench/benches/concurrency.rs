//! E15 — concurrency: snapshot-isolated read scaling and group-commit
//! write latency.
//!
//! Two experiments against [`hrdm_storage::ConcurrentDatabase`]:
//!
//! * **Read scaling** — N reader threads (N ∈ {1, 8}), each repeatedly
//!   taking a snapshot and running a planned query pipeline against it,
//!   while one writer thread keeps committing. Reported as aggregate
//!   reads/sec; on a machine with ≥ 8 cores the 8-reader aggregate should
//!   be ≥ 4× the 1-reader aggregate (snapshot reads take no locks beyond
//!   one `Arc` clone). The core count is printed so CI numbers from
//!   1-core runners are not misread.
//! * **Write latency** — per-write wall latency, p50/p99: one writer
//!   through the plain fsync-per-op path (the `write_path.rs` baseline),
//!   then 8 concurrent writers through the group-commit writer. Group
//!   commit batches the 8 writers' ops into ~1 fsync, so the concurrent
//!   p50 should sit **below** the single-writer fsync-per-op latency, and
//!   the mean commit batch size is reported as the amortization factor.
//!
//! Set `HRDM_BENCH_FAST=1` for the CI smoke mode.

use hrdm_core::prelude::*;
use hrdm_query::{parse_query, run_query, Query};
use hrdm_storage::{ConcurrentDatabase, Database};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast() -> bool {
    std::env::var_os("HRDM_BENCH_FAST").is_some_and(|v| v != "0")
}

fn measure_window() -> Duration {
    if fast() {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(1500)
    }
}

fn preload() -> i64 {
    if fast() {
        1_000
    } else {
        10_000
    }
}

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 1_000_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tup(k: i64) -> Tuple {
    let lo = k % 900_000;
    let life = Lifespan::interval(lo, lo + 50);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

fn bench_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("hrdm-bench-conc-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn populated_concurrent(n: i64) -> ConcurrentDatabase {
    let db = ConcurrentDatabase::new();
    db.create_relation("r", scheme()).unwrap();
    for k in 0..n {
        db.insert("r", tup(k)).unwrap();
    }
    db
}

/// Aggregate reads/sec with `readers` reader threads and one background
/// writer. Each read = snapshot + optimize + plan + evaluate.
fn read_throughput(readers: usize) -> f64 {
    let db = Arc::new(populated_concurrent(preload()));
    let queries: Vec<Query> = [
        "TIMESLICE [100..140] (r)",
        "SELECT-WHEN (K = 17) (r)",
        "SELECT-IF (V >= 500, EXISTS) (TIMESLICE [0..50] (r))",
    ]
    .iter()
    .map(|q| parse_query(q).unwrap())
    .collect();
    let queries = Arc::new(queries);

    let stop = Arc::new(AtomicBool::new(false));
    let total_reads = Arc::new(AtomicU64::new(0));

    // One writer keeps the published snapshot churning.
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut k = 10_000_000i64;
            while !stop.load(Ordering::Relaxed) {
                k += 1;
                db.insert("r", tup(k)).unwrap();
            }
        })
    };

    let window = measure_window();
    let handles: Vec<_> = (0..readers)
        .map(|i| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let total_reads = Arc::clone(&total_reads);
            std::thread::spawn(move || {
                let mut n = 0u64;
                let mut qi = i; // stagger query mix across readers
                while !stop.load(Ordering::Relaxed) {
                    let snap = db.snapshot();
                    let q = &queries[qi % queries.len()];
                    qi += 1;
                    std::hint::black_box(run_query(q, &*snap).unwrap());
                    n += 1;
                }
                total_reads.fetch_add(n, Ordering::Relaxed);
            })
        })
        .collect();

    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    writer.join().unwrap();
    total_reads.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx]
}

/// Per-write latency of a single writer on the fsync-per-op path — the
/// `write_path.rs` baseline, measured per op so percentiles are honest.
fn single_writer_latencies() -> Vec<u64> {
    let dir = bench_dir("single");
    let mut db = Database::open(&dir).unwrap();
    db.create_relation("r", scheme()).unwrap();
    for k in 0..preload() {
        db.insert("r", tup(k)).unwrap();
    }
    let deadline = Instant::now() + measure_window();
    let mut lat = Vec::new();
    let mut k = 20_000_000i64;
    while Instant::now() < deadline {
        k += 1;
        let t = tup(k);
        let started = Instant::now();
        db.insert("r", t).unwrap();
        lat.push(started.elapsed().as_nanos() as u64);
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    lat.sort_unstable();
    lat
}

/// Per-write latency with `writers` concurrent writers through the
/// group-commit path, plus the mean commit batch size.
fn group_commit_latencies(writers: usize) -> (Vec<u64>, f64) {
    let dir = bench_dir(&format!("group-{writers}"));
    let db = Arc::new(ConcurrentDatabase::open(&dir).unwrap());
    db.create_relation("r", scheme()).unwrap();
    for k in 0..preload() {
        db.insert("r", tup(k)).unwrap();
    }
    let before = db.stats();

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut k = 30_000_000i64 + (w as i64) * 10_000_000;
                while !stop.load(Ordering::Relaxed) {
                    k += 1;
                    let t = tup(k);
                    let started = Instant::now();
                    db.insert("r", t).unwrap();
                    lat.push(started.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();
    std::thread::sleep(measure_window());
    stop.store(true, Ordering::Relaxed);
    let mut lat: Vec<u64> = Vec::new();
    for h in handles {
        lat.extend(h.join().unwrap());
    }
    let after = db.stats();
    let batches = after.batches - before.batches;
    let ops = after.ops - before.ops;
    let mean_batch = if batches == 0 {
        0.0
    } else {
        ops as f64 / batches as f64
    };
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    lat.sort_unstable();
    (lat, mean_batch)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("benchmarking group `concurrency` (cores: {cores})");

    // --- Read scaling -----------------------------------------------------
    let r1 = read_throughput(1);
    let r8 = read_throughput(8);
    let scaling = if r1 > 0.0 { r8 / r1 } else { 0.0 };
    println!("concurrency/reads_1r                             throughput: {r1:>12.0} reads/sec");
    println!("concurrency/reads_8r                             throughput: {r8:>12.0} reads/sec");
    println!(
        "concurrency/read_scaling_8r_over_1r              factor: {scaling:>10.2}x (cores: {cores})"
    );

    // --- Write latency ----------------------------------------------------
    let single = single_writer_latencies();
    let (group, mean_batch) = group_commit_latencies(8);
    let s_p50 = percentile(&single, 0.50);
    let s_p99 = percentile(&single, 0.99);
    let g_p50 = percentile(&group, 0.50);
    let g_p99 = percentile(&group, 0.99);
    // Amortized cost of one durable write = measurement window over writes
    // acknowledged in it. This is the number group commit moves: k writes
    // share one fsync, so the per-op cost drops well below one fsync even
    // though each individual write still *waits* for (at least) one fsync
    // wall-clock — closed-loop p50 can never beat the fsync floor.
    let window_ns = measure_window().as_nanos() as f64;
    let s_per_op = window_ns / single.len().max(1) as f64;
    let g_per_op = window_ns / group.len().max(1) as f64;
    println!("concurrency/write_p50_single_writer              time: {s_p50:>12} ns/write");
    println!("concurrency/write_p99_single_writer              time: {s_p99:>12} ns/write");
    println!("concurrency/write_p50_8_writers_grouped          time: {g_p50:>12} ns/write");
    println!("concurrency/write_p99_8_writers_grouped          time: {g_p99:>12} ns/write");
    println!("concurrency/write_per_op_single_writer           time: {s_per_op:>12.0} ns/op");
    println!("concurrency/write_per_op_8_writers_grouped       time: {g_per_op:>12.0} ns/op");
    println!(
        "concurrency/group_commit_mean_batch              factor: {mean_batch:>10.2} ops/fsync"
    );
    let verdict = if g_per_op <= s_per_op { "yes" } else { "no" };
    println!(
        "concurrency/grouped_per_op_below_single          {verdict} ({g_per_op:.0} vs {s_per_op:.0} ns)"
    );
}

//! `bench-json` — run the tracked benches, emit `BENCH_8.json`, gate on
//! regressions.
//!
//! ```sh
//! cargo run --release -p hrdm-bench --bin bench-json            # measure + gate
//! cargo run --release -p hrdm-bench --bin bench-json -- --write-baseline
//! ```
//!
//! Flags:
//!
//! * `--out <path>` — where to write the artifact (default `BENCH_8.json`);
//! * `--baseline <path>` — baseline to gate against (default
//!   `bench/baseline.json`);
//! * `--write-baseline` — overwrite the baseline with this run's medians
//!   and skip the gate (run this on the CI runner class when the tracked
//!   set or the expected performance changes);
//! * `--no-gate` — measure and emit only.
//!
//! The gate fails any gated bench whose median is more than [`TOLERANCE`]
//! (+25%) above its baseline.
//!
//! Environment:
//!
//! * `HRDM_BENCH_INJECT_SLOWDOWN` — multiply every measured median by this
//!   factor before gating. **Test hook only**: injecting `2` must turn the
//!   gate red, which is how the gate's wiring is verified end to end.
//!
//! The tracked benches use fixed workload sizes regardless of
//! `HRDM_BENCH_FAST` (fast mode only shrinks sample time), so artifacts
//! stay comparable across CI smoke runs and full runs on the same
//! hardware class. Only the CPU-bound benches are **gated** (see
//! [`GATED`]): the fsync-bound ones appear in the artifact for trend
//! tracking but their absolute latency tracks the runner's storage, not
//! the code. Baselines are tied to a hardware class — refresh with
//! `--write-baseline` (ideally from a CI run's artifact) when the runner
//! class or expected performance changes.

use hrdm_bench::gate::{
    baseline_json, compare, measure_median_ns, parse_baseline, ratio, to_json_with_metrics,
    BenchResult,
};
use hrdm_core::prelude::*;
use hrdm_query::{parse_query, run_query, Query};
use hrdm_storage::{ConcurrentDatabase, Database, WalRecord};
use std::path::PathBuf;
use std::time::Duration;

fn sample_time() -> Duration {
    if std::env::var_os("HRDM_BENCH_FAST").is_some_and(|v| v != "0") {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(120)
    }
}

/// Allowed fractional regression of a gated median over its baseline.
const TOLERANCE: f64 = 0.25;

const SAMPLES: usize = 5;
const MEM_SIZE: i64 = 10_000;
const WAL_SIZE: i64 = 1_000;

/// The benches the regression gate compares against the baseline — the
/// CPU-bound subset. fsync-bound benches are measured and land in the
/// artifact, but storage latency differs across runner classes by far more
/// than the gate tolerance, so they are excluded from the baseline.
const GATED: &[&str] = &[
    "timeslice_indexed_10k",
    "timeslice_seqscan_10k",
    "select_when_key_probe_10k",
    "snapshot_take_10k",
    "timeslice_pruned_100k",
    "exec_stream_timeslice_100k",
    "when_scan_50k",
    "count_slice_50k",
    "union_slices_50k",
    "decode_hist_50k",
    "serve_slice_50k",
    "serve_scan_50k",
    "checkpoint_dirty_partitions",
    // Buffer-pool read path: CPU-bound (hits) and OS-page-cache-bound
    // (misses) — no fsync in either loop.
    "pool_hit_timeslice_100k",
    "pool_miss_cold_partition",
    // One commit + publish into a relation a snapshot shares: CPU-bound
    // (detached, no fsync), and gated a second way — see
    // [`COMMIT_SCALING_MAX`].
    "commit_publish_1k",
    "commit_publish_100k",
];

/// The most `commit_publish_100k` may cost relative to `commit_publish_1k`
/// in one run. Both samples insert into a relation cut into many
/// partitions (`partition_fixture`'s span), and there a commit after a
/// publish copies O(log n) of the state the snapshot shares, so a
/// hundredfold larger relation must not cost a hundredfold more. That
/// holds only for such a relation: the lifespan index of the one partition
/// a commit lands in is copied whole when a snapshot shares it (a fold
/// every 64 appends), so an unpartitioned relation, or one hot partition,
/// grows linearly with its size (about 5.9x from 1k to 300k tuples).
/// Unlike the baseline comparison this bound does not depend on the
/// runner class.
const COMMIT_SCALING_MAX: f64 = 3.0;

/// Single-op commits timed per `commit_publish_*` sample: few enough that
/// the preloaded relation stays near its nominal size.
const COMMITS_PER_SAMPLE: i64 = 200;

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

fn populated(n: i64) -> ConcurrentDatabase {
    let db = ConcurrentDatabase::new();
    db.create_relation("r", scheme()).unwrap();
    for k in 0..n {
        db.insert("r", tup(k)).unwrap();
    }
    db
}

fn bench_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("hrdm-bench-json-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Runs the tracked bench set. Names are the stable contract with
/// `bench/baseline.json` — change them only together with the baseline.
fn run_tracked() -> Vec<BenchResult> {
    let mut out = Vec::new();
    let mut track = |name: &str, median_ns: f64| {
        eprintln!("  {name:<40} median: {median_ns:>12.1} ns");
        out.push(BenchResult {
            name: name.to_string(),
            median_ns,
        });
    };

    let db = populated(MEM_SIZE);
    let snap = db.snapshot();
    let parse = |q: &str| -> Query { parse_query(q).unwrap() };

    // The same timeslice with the lifespan index and — planned against a
    // bare relation map, which has no access methods — by sequential scan.
    let bare = |snap: &hrdm_storage::DbSnapshot| -> std::collections::BTreeMap<String, Relation> {
        let r = snap.relation("r").expect("the fixture relation").clone();
        [("r".to_string(), r)].into()
    };
    let q = parse("TIMESLICE [100..140] (r)");
    track(
        "timeslice_indexed_10k",
        measure_median_ns(SAMPLES, sample_time(), || {
            std::hint::black_box(run_query(&q, &*snap).unwrap());
        }),
    );
    let unindexed = bare(&snap);
    track(
        "timeslice_seqscan_10k",
        measure_median_ns(SAMPLES, sample_time(), || {
            std::hint::black_box(run_query(&q, &unindexed).unwrap());
        }),
    );
    let q = parse("SELECT-WHEN (K = 4217) (r)");
    track(
        "select_when_key_probe_10k",
        measure_median_ns(SAMPLES, sample_time(), || {
            std::hint::black_box(run_query(&q, &*snap).unwrap());
        }),
    );

    // Taking the published snapshot — the heart of the concurrency
    // model: one reference-count bump, whatever the database holds.
    track(
        "snapshot_take_10k",
        measure_median_ns(SAMPLES, sample_time(), || {
            std::hint::black_box(db.snapshot());
        }),
    );

    // Partition pruning: a selective TIME-SLICE over a 100k-tuple,
    // 64-partition relation, against the same data unpartitioned
    // (span = ∞) both *with* its one partition's lifespan index, one
    // block-zone index of 100k entries (`timeslice_flat_index_100k` —
    // ungated; pruning matches it on CPU; the
    // partition win is locality: per-partition files and dirty-only
    // checkpoints) and *without* any index assist
    // (`timeslice_unpartitioned_100k` — the restrict-everything scan a
    // selective slice pays when nothing bounds it, ~3 orders slower).
    {
        use hrdm_bench::partition_fixture::{populated, SPAN_LOG2};
        use hrdm_storage::PartitionPolicy;
        let pruned = populated(PartitionPolicy::SpanLog2(SPAN_LOG2), 100_000).snapshot();
        let flat = populated(PartitionPolicy::Unpartitioned, 100_000).snapshot();
        let lo = 32i64 << SPAN_LOG2;
        let q = parse(&format!("TIMESLICE [{lo}..{}] (r)", lo + 50));
        track(
            "timeslice_pruned_100k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query(&q, &*pruned).unwrap());
            }),
        );
        track(
            "timeslice_flat_index_100k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query(&q, &*flat).unwrap());
            }),
        );
        let unindexed = bare(&flat);
        track(
            "timeslice_unpartitioned_100k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query(&q, &unindexed).unwrap());
            }),
        );

        // The streaming executor over the same fixture: the pruned
        // TIME-SLICE collected through the batch pipeline (the streaming
        // analogue of `timeslice_pruned_100k`, gated — it tracks executor
        // overhead on a selective scan).
        use hrdm_query::{stream_query_on_snapshot, ExecOptions, StreamedQuery};
        let slice = format!("TIMESLICE [{lo}..{}] (r)", lo + 50);
        let opts = ExecOptions::default();
        track(
            "exec_stream_timeslice_100k",
            measure_median_ns(SAMPLES, sample_time(), || {
                match stream_query_on_snapshot(&slice, &*pruned, &opts).unwrap() {
                    StreamedQuery::Rows(s) => std::hint::black_box(s.collect_relation().unwrap()),
                    _ => unreachable!("relation-sorted query"),
                };
            }),
        );
    }

    // The lifespan and aggregate sorts through the planned executor, at
    // the benchmark's relation size: a selective `WHEN` over a full scan
    // (lifespan-only select, one n-ary union) and a `COUNT` over a literal
    // slice (an index scan over the few overlapping tuples). Either falling
    // back to restricting and materializing all 50k tuples shows up here
    // as a many-fold regression.
    {
        use hrdm_bench::partition_fixture::{populated, SPAN_LOG2};
        use hrdm_storage::PartitionPolicy;
        let snap = populated(PartitionPolicy::SpanLog2(SPAN_LOG2), 50_000).snapshot();
        let q = parse("WHEN (SELECT-WHEN (V >= 49500) (r))");
        track(
            "when_scan_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query(&q, &*snap).unwrap());
            }),
        );
        let lo = 32i64 << SPAN_LOG2;
        let q = parse(&format!("COUNT V (TIMESLICE [{lo}..{}] (r))", lo + 50));
        track(
            "count_slice_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query(&q, &*snap).unwrap());
            }),
        );

        // A UNION of two overlapping 4-partition slices through the
        // executor: the build side is hashed once, the probe side streams
        // through it, and the slices hand on their interior tuples
        // unrebuilt. Copying and re-hashing either input shows up here.
        use hrdm_query::{build_executor, plan, ExecOptions, Expr, QueryStream};
        let span = 1i64 << SPAN_LOG2;
        let slice =
            |a: i64| Box::new(Expr::rel("r").timeslice(Lifespan::interval(a, a + 4 * span)));
        let union = Expr::Union(slice(lo), slice(lo + 2 * span));
        let opts = ExecOptions::default();
        track(
            "union_slices_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                let p = plan(&union, &*snap);
                let mut s = QueryStream::new(build_executor(&p, &*snap, &opts), &opts).unwrap();
                while let Some(batch) = s.next_batch().unwrap() {
                    std::hint::black_box(batch);
                }
            }),
        );
    }

    // Decoding stored tuples against their scheme, one record at a time —
    // what `Database::open`, WAL recovery and a paged materialization do —
    // over 50k tuples of the benchmark's `hist` shape. Tracks the tuple
    // representation: every decoded tuple is allocated and kept.
    {
        use hrdm_bench::gen::{hist_scheme, hist_tuples};
        use hrdm_storage::{Decoder, Encoder};
        let era = 1 << 20;
        let scheme = hist_scheme(era);
        let tuples = hist_tuples(50_000, era, 7);
        let records: Vec<Vec<u8>> = tuples
            .iter()
            .map(|t| {
                let mut e = Encoder::new();
                e.put_tuple(t);
                e.finish()
            })
            .collect();
        track(
            "decode_hist_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                let decoded: Vec<Tuple> = records
                    .iter()
                    .map(|r| Decoder::new(r).get_tuple_in(&scheme).unwrap())
                    .collect();
                std::hint::black_box(decoded);
            }),
        );

        // Serving one 50-chronon slice of the same data the way an `hrdmd`
        // session does: stream the rows and encode each batch into a
        // `RowChunk` buffer. The rows the window covers only in part are
        // written as `τ_clip(t)` from the stored tuples; building their
        // restricted tuples first shows up here.
        use hrdm_net::encode_row_chunk_into;
        use hrdm_query::{stream_query_on_snapshot, ExecOptions, StreamedQuery};
        use hrdm_storage::PartitionPolicy;
        let hist = Relation::with_tuples(scheme.clone(), tuples).unwrap();
        let served =
            Database::with_relations(PartitionPolicy::SpanLog2(14), [("hist", hist)]).unwrap();
        let t = era / 2;
        let slice = format!("TIMESLICE [{t}..{}] (hist)", t + 50);
        let opts = ExecOptions::default();
        let mut buf = Vec::new();
        track(
            "serve_slice_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                buf.clear();
                let StreamedQuery::Rows(mut rows) =
                    stream_query_on_snapshot(&slice, &served, &opts).unwrap()
                else {
                    unreachable!("relation-sorted query");
                };
                while let Some(batch) = rows.next_batch().unwrap() {
                    encode_row_chunk_into(&mut buf, 1, 0, batch.rows());
                }
                std::hint::black_box(&buf);
            }),
        );

        // Serving a full scan the same way: `SELECT-WHEN (V >= 930)` reads
        // all 50k stored tuples and writes the ~30 % whose `V` reaches 930,
        // each clipped to when it does. Tracks the scan and the one-pass
        // row encoder together.
        let scan = "SELECT-WHEN (V >= 930) (hist)";
        track(
            "serve_scan_50k",
            measure_median_ns(SAMPLES, sample_time(), || {
                buf.clear();
                let StreamedQuery::Rows(mut rows) =
                    stream_query_on_snapshot(scan, &served, &opts).unwrap()
                else {
                    unreachable!("relation-sorted query");
                };
                while let Some(batch) = rows.next_batch().unwrap() {
                    encode_row_chunk_into(&mut buf, 1, 0, batch.rows());
                }
                std::hint::black_box(&buf);
            }),
        );
    }

    // Dirty-only checkpoint: insert into one partition, checkpoint — the
    // new heap file holds that one partition's run, and the other 63 keep
    // pointing into the first checkpoint's file. (Gated: the dominant cost
    // is the catalog+heap write of a single small partition, stable across
    // runs on one runner class.)
    {
        use hrdm_bench::partition_fixture::{scheme as part_scheme, tup as part_tup, SPAN_LOG2};
        use hrdm_storage::PartitionPolicy;
        let dir = bench_dir("ckpt-dirty");
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
        db.create_relation("r", part_scheme()).unwrap();
        let batch: Vec<WalRecord> = (0..20_000)
            .map(|k| WalRecord::Insert {
                relation: "r".to_string(),
                tuple: part_tup(k),
            })
            .collect();
        for r in db.commit_batch(batch) {
            r.unwrap();
        }
        db.checkpoint().unwrap();
        let mut k = 30_000_000i64;
        track(
            "checkpoint_dirty_partitions",
            measure_median_ns(SAMPLES, sample_time(), || {
                k += 1;
                db.insert("r", part_tup(k)).unwrap();
                db.checkpoint().unwrap();
            }),
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    // The out-of-core read path: a windowed query over a checkpointed
    // 100k-tuple partitioned relation, its scan reading the cold
    // partitions through the buffer pool. `pool_hit` runs against a pool
    // large enough that the second and later queries are all frame hits
    // (pure CPU: pruning + a lifespan probe per record of the heap pages
    // whose zone meets the window + decoding, clipped, the records the
    // window keeps). `pool_miss` runs the same window through a 2-frame
    // pool, so every iteration re-faults the pages it visits — reads come
    // from the OS page cache (no fsync), so both are gateable on one
    // runner class.
    {
        use hrdm_bench::partition_fixture::{scheme as part_scheme, tup as part_tup, SPAN_LOG2};
        use hrdm_query::run_query_on_paged;
        use hrdm_storage::{BufferPool, PagedDatabase, PartitionPolicy};
        let dir = bench_dir("paged");
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
        db.create_relation("r", part_scheme()).unwrap();
        for chunk in 0..10i64 {
            let batch: Vec<WalRecord> = (chunk * 10_000..(chunk + 1) * 10_000)
                .map(|k| WalRecord::Insert {
                    relation: "r".to_string(),
                    tuple: part_tup(k),
                })
                .collect();
            for r in db.commit_batch(batch) {
                r.unwrap();
            }
        }
        db.checkpoint().unwrap();
        drop(db);

        let lo = 32i64 << SPAN_LOG2;
        let q = format!("TIMESLICE [{lo}..{}] (r)", lo + 50);
        let warm = PagedDatabase::open_with_pool(&dir, BufferPool::new(4096)).unwrap();
        std::hint::black_box(run_query_on_paged(&q, &warm).unwrap()); // fault once
        track(
            "pool_hit_timeslice_100k",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query_on_paged(&q, &warm).unwrap());
            }),
        );
        let cold = PagedDatabase::open_with_pool(&dir, BufferPool::new(2)).unwrap();
        track(
            "pool_miss_cold_partition",
            measure_median_ns(SAMPLES, sample_time(), || {
                std::hint::black_box(run_query_on_paged(&q, &cold).unwrap());
            }),
        );
        drop(warm);
        drop(cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    // What a published snapshot costs the next write: one single-op
    // commit through a detached `ConcurrentDatabase` (no fsync) holding
    // 1k / 100k tuples, a snapshot published after each and the previous
    // one still held by a reader. Structure sharing keeps the two within
    // a small factor of each other ([`COMMIT_SCALING_MAX`]).
    for (name, preload) in [
        ("commit_publish_1k", 1_000),
        ("commit_publish_100k", 100_000),
    ] {
        use hrdm_bench::partition_fixture::{populated, tup as part_tup, SPAN_LOG2};
        use hrdm_storage::PartitionPolicy;
        let db = populated(PartitionPolicy::SpanLog2(SPAN_LOG2), preload);
        let mut next_key = preload;
        let mut sample_means: Vec<f64> = (0..=SAMPLES)
            .map(|_| {
                let started = std::time::Instant::now();
                for _ in 0..COMMITS_PER_SAMPLE {
                    let held = db.snapshot();
                    db.insert("r", part_tup(next_key)).unwrap();
                    next_key += 1;
                    std::hint::black_box(held);
                }
                started.elapsed().as_nanos() as f64 / COMMITS_PER_SAMPLE as f64
            })
            .skip(1) // warm-up
            .collect();
        sample_means.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        track(name, sample_means[sample_means.len() / 2]);
    }

    // Durable single write (fsync per op) vs an 8-op group-commit batch
    // (one fsync), reported per op.
    {
        let dir = bench_dir("wal");
        let mut wal_db = Database::open(&dir).unwrap();
        wal_db.create_relation("r", scheme()).unwrap();
        for k in 0..WAL_SIZE {
            wal_db.insert("r", tup(k)).unwrap();
        }
        let mut k = 10_000_000i64;
        track(
            "wal_append_insert_1k",
            measure_median_ns(SAMPLES, sample_time(), || {
                k += 1;
                wal_db.insert("r", tup(k)).unwrap();
            }),
        );
        let mut k2 = 20_000_000i64;
        let per_batch = measure_median_ns(SAMPLES, sample_time(), || {
            let ops: Vec<WalRecord> = (0..8)
                .map(|_| {
                    k2 += 1;
                    WalRecord::Insert {
                        relation: "r".to_string(),
                        tuple: tup(k2),
                    }
                })
                .collect();
            for r in wal_db.commit_batch(ops) {
                r.unwrap();
            }
        });
        track("group_commit_per_op_batch8_1k", per_batch / 8.0);
        drop(wal_db);
        std::fs::remove_dir_all(&dir).ok();
    }

    out
}

/// Samples engine internals from the [`hrdm_obs`] global registry
/// *after* the tracked benches ran — the artifact's schema-2 `"metrics"`
/// object. Trend data only (batch sizes, prune ratios, WAL latencies);
/// the regression gate never reads it.
fn registry_metrics() -> Vec<(String, f64)> {
    let g = hrdm_obs::global();
    let mut out = Vec::new();
    for name in [
        "hrdm_query_partitions_probed_total",
        "hrdm_query_partitions_pruned_total",
        "hrdm_query_index_scans_total",
        "hrdm_query_seq_scans_total",
        "hrdm_snapshot_publish_total",
        "hrdm_storage_index_folds_total",
        "hrdm_checkpoint_dirty_partitions_total",
        "hrdm_pool_hits_total",
        "hrdm_pool_misses_total",
        "hrdm_pool_evictions_total",
        "hrdm_paged_records_scanned_total",
        "hrdm_paged_records_decoded_total",
    ] {
        if let Some(v) = g.counter_value(name) {
            out.push((name.to_string(), v as f64));
        }
    }
    // Of the partitions the benches' bounded scans considered, what
    // fraction was pruned without being touched?
    if let (Some(probed), Some(pruned)) = (
        g.counter_value("hrdm_query_partitions_probed_total"),
        g.counter_value("hrdm_query_partitions_pruned_total"),
    ) {
        if probed + pruned > 0 {
            out.push((
                "hrdm_query_prune_ratio".to_string(),
                pruned as f64 / (probed + pruned) as f64,
            ));
        }
    }
    for name in [
        "hrdm_commit_batch_size",
        "hrdm_wal_append_ns",
        "hrdm_wal_fsync_ns",
        "hrdm_checkpoint_ns",
        "hrdm_storage_index_fold_ns",
    ] {
        if let Some(snap) = g.histogram_snapshot(name) {
            out.push((format!("{name}_count"), snap.count() as f64));
            out.push((format!("{name}_p50"), snap.p50().unwrap_or(0) as f64));
            out.push((format!("{name}_p99"), snap.p99().unwrap_or(0) as f64));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = PathBuf::from("BENCH_8.json");
    let mut baseline_path = PathBuf::from("bench/baseline.json");
    let mut write_baseline = false;
    let mut no_gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = PathBuf::from(it.next().expect("--out needs a path")),
            "--baseline" => {
                baseline_path = PathBuf::from(it.next().expect("--baseline needs a path"))
            }
            "--write-baseline" => write_baseline = true,
            "--no-gate" => no_gate = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("bench-json: running tracked benches…");
    let mut results = run_tracked();

    if let Ok(factor) = std::env::var("HRDM_BENCH_INJECT_SLOWDOWN") {
        let factor: f64 = factor.parse().expect("HRDM_BENCH_INJECT_SLOWDOWN: number");
        eprintln!("bench-json: INJECTING a {factor}x slowdown (gate self-test)");
        for r in &mut results {
            r.median_ns *= factor;
        }
    }

    let metrics = registry_metrics();
    let json = to_json_with_metrics(&results, &metrics);
    std::fs::write(&out_path, &json).expect("write artifact");
    eprintln!(
        "bench-json: wrote {} ({} registry metric(s))",
        out_path.display(),
        metrics.len()
    );

    if write_baseline {
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        // Only the CPU-bound benches enter the baseline: the fsync-bound
        // ones (`wal_…`, `group_commit_…`) vary with the runner's storage
        // far beyond any sensible tolerance, so they are reported in the
        // artifact but not gated.
        let gated: Vec<BenchResult> = results
            .iter()
            .filter(|r| GATED.contains(&r.name.as_str()))
            .cloned()
            .collect();
        std::fs::write(&baseline_path, baseline_json(&gated)).expect("write baseline");
        eprintln!(
            "bench-json: baseline refreshed at {} ({} gated bench(es))",
            baseline_path.display(),
            gated.len()
        );
        return;
    }
    if no_gate {
        return;
    }

    let baseline_json = match std::fs::read_to_string(&baseline_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "bench-json: no baseline at {} ({e}); gate skipped — \
                 run with --write-baseline to start the trajectory",
                baseline_path.display()
            );
            return;
        }
    };
    let baseline = parse_baseline(&baseline_json).expect("parse baseline");
    let outcome = compare(&results, &baseline, TOLERANCE);
    eprintln!(
        "bench-json: compared {} bench(es) against {} (tolerance +{:.0}%)",
        outcome.compared,
        baseline_path.display(),
        TOLERANCE * 100.0
    );
    for m in &outcome.missing {
        eprintln!("bench-json: MISSING tracked bench `{m}` (in baseline, not produced)");
    }
    for r in &outcome.regressions {
        eprintln!(
            "bench-json: REGRESSION `{}`: {:.1} ns vs baseline {:.1} ns ({:.2}x)",
            r.name,
            r.current_ns,
            r.baseline_ns,
            r.ratio()
        );
    }
    if !outcome.pass() {
        eprintln!(
            "bench-json: FAILED — if this PR knowingly changes performance (or the \
             runner class changed), refresh the baseline in the same PR: \
             cargo run --release -p hrdm-bench --bin bench-json -- --write-baseline"
        );
        std::process::exit(1);
    }
    match ratio(&results, "commit_publish_100k", "commit_publish_1k") {
        Some(r) if r <= COMMIT_SCALING_MAX => {
            eprintln!("bench-json: commit_publish 100k/1k = {r:.2} (max {COMMIT_SCALING_MAX})")
        }
        found => {
            eprintln!(
                "bench-json: FAILED — commit_publish 100k/1k = {found:?}, above the \
                 {COMMIT_SCALING_MAX} scaling bound (or not measured): a commit after a \
                 publish is copying state in proportion to the relation again"
            );
            std::process::exit(1);
        }
    }
    eprintln!("bench-json: OK");
}

//! The traced run: per-layer counts, a span-traced replay, and layer
//! probes.
//!
//! A `--trace 1` run of a workload does three things, none of which is
//! used for the end-to-end numbers:
//!
//! 1. it drives the workload's own traffic for a short window and reads
//!    the engine's counters (`Client::stats()`/`Client::metrics()` for the
//!    served workloads, `BufferPool::stats()` in process) before and
//!    after: counts and ratios, measured where the work happens;
//! 2. it replays a fixed-count, seeded prefix of the op stream in process,
//!    single-threaded, through the same public functions the server
//!    calls, with this crate's span recorder around each call into a
//!    layer: per-layer self-time shares, and (the same replay with the
//!    recorder off) the recorder's overhead;
//! 3. it times each layer's primitives on a sample of the workload's own
//!    tuples and queries: the probes. Every workload runs every probe, so
//!    a per-layer time is always a measurement, never a placeholder.

use crate::data::{self, dir_bytes, Births, DataSet, SliceCounter, TupleSpec, ERA, SPAN_LOG2};
use crate::ops::{PointMix, ReadOp, POINT_WINDOW};
use crate::spans::{self_time_by_layer, Recorder};
use crate::stats::median;
use crate::wire::{fresh_dir, other, spawn_until_correct, Wire};
use crate::workloads::{
    analytic_set, closed_loop_reads, closed_loop_writers, cycling, in_completion_order,
    old_and_recent_p50_us, paged_read, start_paged, start_served, us, Ctx, Ingest, Metric, Outcome,
    Sample, CLIENTS, PAGED_HOT_FROM, POINT_DEPTH,
};
use hrdm_core::prelude::*;
use hrdm_index::RelationIndexes;
use hrdm_net::{decode_frame_traced, encode_frame_traced, Frame};
use hrdm_query::{
    optimize, parse_query, plan, run_query_on_snapshot, stream_query_on_snapshot, ExecOptions,
    Query, StreamedQuery,
};
use hrdm_storage::{
    BufferPool, ConcurrentDatabase, Database, Decoder, Encoder, LifespanBTree, PagedDatabase,
    PartitionPolicy, Wal, WalRecord, PAGE_SIZE,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A per-layer metric `BENCHMARK.json` lists. The prediction of which
/// end-to-end metric each should move, on which workload, is in
/// `benchmark/metrics.json`.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

pub const PER_LAYER: [PerLayer; 71] = [
    // net
    m("net.frame_encode_ns_per_kib", "ns/KiB"),
    m("net.frame_decode_ns_per_kib", "ns/KiB"),
    m("net.wire_overhead_us", "us"),
    m("net.bytes_out_per_row", "B"),
    m("net.frames_out_per_query", "count"),
    m("net.requests_failed", "count"),
    m("net.connections_refused", "count"),
    // query front half
    m("query.parse_us", "us"),
    m("query.optimize_us", "us"),
    m("query.plan_us", "us"),
    m("query.prune_ratio", "ratio"),
    m("query.index_scans", "count"),
    m("query.seq_scans", "count"),
    // query::exec
    m("exec.drain_us", "us"),
    m("exec.batches_per_query", "count"),
    m("exec.rows_per_batch", "count"),
    m("exec.rows_per_s", "1/s"),
    // core::algebra and time
    m("core.timeslice_ns_per_tuple", "ns"),
    m("core.time_join_ns_per_pair", "ns"),
    m("core.union_ns_per_tuple", "ns"),
    m("time.lifespan_intersect_ns", "ns"),
    m("time.lifespan_union_ns", "ns"),
    // index
    m("index.key_lookup_ns", "ns"),
    m("index.lifespan_overlap_ns", "ns"),
    m("index.insert_ns", "ns"),
    m("index.build_ms", "ms"),
    // storage::codec
    m("codec.encode_ns_per_tuple", "ns"),
    m("codec.decode_ns_per_tuple", "ns"),
    m("codec.bytes_per_tuple", "B"),
    // storage::wal + storage::concurrent
    m("wal.append_batch_us", "us"),
    m("wal.fsyncs", "count"),
    m("wal.fsync_mean_us", "us"),
    m("wal.bytes_per_user_byte", "B/B"),
    m("wal.replay_ms", "ms"),
    m("commit.batch_mean", "count"),
    m("commit.write_us", "us"),
    m("commit.write_with_reader_p50_us", "us"),
    m("snapshot.publish_count", "count"),
    m("snapshot.take_ns", "ns"),
    // storage::database + storage::partition
    m("checkpoint.dirty_partitions", "count"),
    m("checkpoint.linked_partitions", "count"),
    m("checkpoint.bytes_written", "B"),
    m("checkpoint.ms", "ms"),
    m("open.ms", "ms"),
    // storage::{pool, heap, btree, paged}
    m("pool.hits", "count"),
    m("pool.misses", "count"),
    m("pool.evictions", "count"),
    m("pool.writebacks", "count"),
    m("pool.hit_ratio", "ratio"),
    m("pool.get_hit_ns", "ns"),
    m("pool.get_miss_us", "us"),
    m("paged.window_snapshot_ms", "ms"),
    m("paged.partitions_opened_per_query", "count"),
    m("paged.pages_faulted_per_query", "count"),
    m("btree.pages_read_per_lookup", "count"),
    m("paged.data_pages_over_pool", "ratio"),
    // obs
    m("obs.scrape_us", "us"),
    m("obs.events_dropped", "count"),
    // the served window: where the clients' waiting time went, by the
    // server's own plan/exec clocks (read requests only)
    m("served.plan_pct", "%"),
    m("served.exec_pct", "%"),
    m("served.net_pct", "%"),
    // the tail of the counter window's latencies: reported, not bounded,
    // because it does not repeat within any admissible bound here
    m("tail.op_us", "us"),
    // the traced replay: self-time share of each layer group
    m("trace.net_pct", "%"),
    m("trace.query_pct", "%"),
    m("trace.exec_pct", "%"),
    m("trace.snapshot_pct", "%"),
    m("trace.commit_pct", "%"),
    m("trace.checkpoint_pct", "%"),
    m("trace.paged_pct", "%"),
    m("trace.harness_pct", "%"),
    m("trace.overhead_pct", "%"),
];

/// Layer groups of the replay's spans, in `trace.<group>_pct` order. The
/// engine has no spans of its own yet, so `exec` includes the algebra and
/// lifespan arithmetic it calls, `commit` the WAL append and fsync, and
/// `paged` the pool, heap, B+tree and codec work of one window.
const TRACE_GROUPS: [&str; 8] = [
    "net",
    "query",
    "exec",
    "snapshot",
    "commit",
    "checkpoint",
    "paged",
    "harness",
];

/// Ops in the replayed prefix, per workload.
const REPLAY_POINT_OPS: usize = 3_000;
const REPLAY_INGEST_OPS: usize = 1_500;
const REPLAY_INGEST_CHECKPOINT_EVERY: usize = 500;
const REPLAY_PAGED_OPS: usize = 100;
/// Tuples the probes run on.
const PROBE_TUPLES: i64 = 2_000;

/// Median ns of `f`, timed `n` times.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> u64 {
    let mut ns = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i);
        ns.push(t.elapsed().as_nanos() as u64);
    }
    median(&ns)
}

/// Total ns of one call.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Counters and histogram sums/counts of a Prometheus text exposition
/// (bucket lines, which carry labels, are skipped).
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Everything the served counters say, as one flat map.
fn scrape(addr: &str) -> io::Result<HashMap<String, f64>> {
    let mut client = hrdm_net::Client::connect_as(addr, "hrdm-benchmark-scrape").map_err(other)?;
    let mut map = parse_exposition(&client.metrics().map_err(other)?);
    let s = client.stats().map_err(other)?;
    for (k, v) in [
        ("stats.frames_out", s.frames_out),
        ("stats.requests", s.requests),
        ("stats.bytes_out", s.bytes_out),
        ("stats.rows_streamed", s.rows_streamed),
        ("stats.batches_streamed", s.batches_streamed),
        ("stats.commit_batches", s.commit_batches),
        ("stats.commit_ops", s.commit_ops),
        ("stats.plan_ns", s.plan_ns),
        ("stats.exec_ns", s.exec_ns),
    ] {
        map.insert(k.to_string(), v as f64);
    }
    Ok(map)
}

/// `after - before` of one scraped family (0 when absent).
struct Delta {
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

impl Delta {
    fn of(&self, key: &str) -> f64 {
        self.after.get(key).copied().unwrap_or(0.0) - self.before.get(key).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The named per-layer values of one traced run.
#[derive(Default)]
struct Values(HashMap<&'static str, (f64, u64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(PER_LAYER.iter().any(|p| p.name == name), "{name}");
        self.0.insert(name, (value, samples));
    }

    /// Counter-derived values shared by the three served workloads.
    ///
    /// `waited_ns` is the sum of the clients' read latencies: what is left
    /// of it after the server's plan and exec clocks is framing, socket
    /// calls, thread wake-ups and session handling.
    fn set_served_counters(&mut self, d: &Delta, queries: u64, waited_ns: u64) {
        let (plan_ns, exec_ns) = (d.of("stats.plan_ns"), d.of("stats.exec_ns"));
        let waited = waited_ns as f64;
        self.set("served.plan_pct", 100.0 * ratio(plan_ns, waited), queries);
        self.set("served.exec_pct", 100.0 * ratio(exec_ns, waited), queries);
        self.set(
            "served.net_pct",
            100.0 * ratio((waited - plan_ns - exec_ns).max(0.0), waited),
            queries,
        );
        let rows = d.of("stats.rows_streamed");
        self.set(
            "net.bytes_out_per_row",
            ratio(d.of("stats.bytes_out"), rows),
            rows as u64,
        );
        self.set(
            "net.frames_out_per_query",
            ratio(d.of("stats.frames_out"), d.of("stats.requests")),
            d.of("stats.requests") as u64,
        );
        let pruned = d.of("hrdm_query_partitions_pruned_total");
        let probed = d.of("hrdm_query_partitions_probed_total");
        self.set(
            "query.prune_ratio",
            ratio(pruned, pruned + probed),
            (pruned + probed) as u64,
        );
        self.set("query.index_scans", d.of("hrdm_query_index_scans_total"), 1);
        self.set("query.seq_scans", d.of("hrdm_query_seq_scans_total"), 1);
        let batches = d.of("stats.batches_streamed");
        self.set(
            "exec.batches_per_query",
            ratio(batches, queries as f64),
            queries,
        );
        self.set("exec.rows_per_batch", ratio(rows, batches), batches as u64);
        self.set("wal.fsyncs", d.of("hrdm_wal_fsync_ns_count"), 1);
        self.set(
            "commit.batch_mean",
            ratio(d.of("stats.commit_ops"), d.of("stats.commit_batches")),
            d.of("stats.commit_batches") as u64,
        );
        self.set(
            "snapshot.publish_count",
            d.of("hrdm_snapshot_publish_total"),
            1,
        );
        self.set(
            "checkpoint.dirty_partitions",
            d.of("hrdm_checkpoint_dirty_partitions_total"),
            d.of("hrdm_checkpoint_ns_count") as u64,
        );
        self.set(
            "checkpoint.linked_partitions",
            d.of("hrdm_checkpoint_linked_partitions_total"),
            d.of("hrdm_checkpoint_ns_count") as u64,
        );
        let (hits, misses) = (d.of("hrdm_pool_hits_total"), d.of("hrdm_pool_misses_total"));
        self.set("pool.hits", hits, 1);
        self.set("pool.misses", misses, 1);
        self.set("pool.evictions", d.of("hrdm_pool_evictions_total"), 1);
        self.set("pool.writebacks", d.of("hrdm_pool_writebacks_total"), 1);
        self.set(
            "pool.hit_ratio",
            ratio(hits, hits + misses),
            (hits + misses) as u64,
        );
        self.set("obs.events_dropped", d.of("hrdm_events_dropped_total"), 1);
    }

    /// What the counter window's own samples say. `tail_q` is the highest
    /// quantile the workload's sample count supports (p99 or p90).
    fn traffic(&mut self, samples: &[Sample], elapsed_s: f64, tail_q: f64) {
        let ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
        self.set(
            "tail.op_us",
            us(crate::stats::five_slice_tail(&ns, tail_q)),
            ns.len() as u64,
        );
        let failed = samples.iter().filter(|s| !s.ok).count();
        self.set("net.requests_failed", failed as f64, samples.len() as u64);
        self.set(
            "net.connections_refused",
            crate::wire::connections_refused() as f64,
            samples.len() as u64,
        );
        let rows: u64 = samples.iter().map(|s| s.rows).sum();
        self.set("exec.rows_per_s", rows as f64 / elapsed_s, rows);
    }
}

/// Shares of the replay's self time per layer group, and the recorder's
/// overhead against the same replay with recording off.
fn trace_shares(values: &mut Values, rec: &Recorder, traced_ns: u64, untraced_ns: u64) {
    let by_layer = self_time_by_layer(rec.spans());
    let total: u64 = by_layer.values().sum();
    let requests = rec.spans().iter().filter(|s| s.parent.is_none()).count() as u64;
    for (group, name) in TRACE_GROUPS.iter().zip([
        "trace.net_pct",
        "trace.query_pct",
        "trace.exec_pct",
        "trace.snapshot_pct",
        "trace.commit_pct",
        "trace.checkpoint_pct",
        "trace.paged_pct",
        "trace.harness_pct",
    ]) {
        let own = by_layer.get(group).copied().unwrap_or(0);
        values.set(name, 100.0 * ratio(own as f64, total as f64), requests);
    }
    values.set(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
        requests,
    );
}

/// What the probes run on: a sample of the workload's own tuples and
/// queries, its checkpointed directory, and a scratch directory.
struct ProbeInput<'a> {
    data: DataSet,
    dir: &'a Path,
    queries: Vec<String>,
    scratch: PathBuf,
    pool_pages: usize,
}

fn largest_file(dir: &Path, prefix: &str, suffix: &str) -> io::Result<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(prefix) && name.ends_with(suffix) {
            let len = entry.metadata()?.len();
            if best.as_ref().is_none_or(|(l, _)| len > *l) {
                best = Some((len, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| io::Error::other(format!("no {prefix}*{suffix} in {}", dir.display())))
}

/// Times each layer's primitives on the workload's own inputs.
fn run_probes(values: &mut Values, input: &ProbeInput<'_>) -> io::Result<()> {
    let hs = data::hist_scheme();
    let sample = DataSet {
        hist: input.data.hist.min(PROBE_TUPLES),
        grp: 200,
        ..input.data
    };
    let specs: Vec<TupleSpec> = sample.specs().collect();
    let tuples: Vec<Tuple> = specs.iter().map(|s| s.to_tuple(&hs)).collect();
    let n = tuples.len();
    let relation = Relation::from_parts_unchecked(hs.clone(), tuples.iter().cloned());
    let gs = data::grp_scheme();
    let grp =
        Relation::from_parts_unchecked(gs.clone(), sample.grp_specs().map(|g| g.to_tuple(&gs)));

    // storage::codec
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n);
    let (_, enc_ns) = time_once(|| {
        for t in &tuples {
            let mut e = Encoder::new();
            e.put_tuple(t);
            encoded.push(e.finish());
        }
    });
    let (_, dec_ns) = time_once(|| {
        for bytes in &encoded {
            black_box(Decoder::new(bytes).get_tuple().expect("round trip"));
        }
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    values.set(
        "codec.encode_ns_per_tuple",
        enc_ns as f64 / n as f64,
        n as u64,
    );
    values.set(
        "codec.decode_ns_per_tuple",
        dec_ns as f64 / n as f64,
        n as u64,
    );
    values.set("codec.bytes_per_tuple", bytes as f64 / n as f64, n as u64);

    // net framing, on the workload's own result rows
    let frames: Vec<Frame> = tuples
        .chunks(256)
        .map(|c| Frame::RowChunk { tuples: c.to_vec() })
        .collect();
    let mut wire_bytes: Vec<Vec<u8>> = Vec::new();
    let (_, enc_ns) = time_once(|| {
        for f in &frames {
            wire_bytes.push(encode_frame_traced(1, 0, f));
        }
    });
    let (_, dec_ns) = time_once(|| {
        for b in &wire_bytes {
            black_box(decode_frame_traced(&b[4..]).expect("round trip"));
        }
    });
    let kib = wire_bytes.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    values.set(
        "net.frame_encode_ns_per_kib",
        enc_ns as f64 / kib,
        frames.len() as u64,
    );
    values.set(
        "net.frame_decode_ns_per_kib",
        dec_ns as f64 / kib,
        frames.len() as u64,
    );

    // time: lifespan arithmetic on the generated (partly fragmented) lifespans
    let lifespans: Vec<Lifespan> = specs.iter().map(TupleSpec::lifespan).collect();
    let shifted: Vec<Lifespan> = lifespans
        .iter()
        .map(|l| l.shift(POINT_WINDOW * 4))
        .collect();
    let (_, ns) = time_once(|| {
        for (a, b) in lifespans.iter().zip(&shifted) {
            black_box(a.intersect(b));
        }
    });
    values.set("time.lifespan_intersect_ns", ns as f64 / n as f64, n as u64);
    let (_, ns) = time_once(|| {
        for (a, b) in lifespans.iter().zip(&shifted) {
            black_box(a.union(b));
        }
    });
    values.set("time.lifespan_union_ns", ns as f64 / n as f64, n as u64);

    // core::algebra on materialized inputs
    let mid = specs[n / 2].birth();
    let window = Lifespan::interval(mid, mid + 8 * POINT_WINDOW);
    let ns = time_each(9, |_| {
        black_box(timeslice(&relation, &window));
    });
    values.set("core.timeslice_ns_per_tuple", ns as f64 / n as f64, 9);
    let left = relation.subset_at_positions(&(0..n.min(200)).collect::<Vec<_>>());
    let pairs = (left.len() * grp.len()) as f64;
    let ns = time_each(9, |_| {
        black_box(time_join(&left, &grp, &Attribute::new("W")).expect("W is time-valued"));
    });
    values.set("core.time_join_ns_per_pair", ns as f64 / pairs, 9);
    let half_a = timeslice(&relation, &Lifespan::interval(0, ERA / 2 + ERA / 4));
    let half_b = timeslice(&relation, &Lifespan::interval(ERA / 4, ERA));
    let ns = time_each(9, |_| {
        black_box(union(&half_a, &half_b).expect("union compatible"));
    });
    values.set(
        "core.union_ns_per_tuple",
        ns as f64 / (half_a.len() + half_b.len()).max(1) as f64,
        9,
    );

    // index: probe, overlap, incremental maintenance, bulk build
    let ns = time_each(5, |_| {
        black_box(RelationIndexes::build(&relation));
    });
    values.set("index.build_ms", ns as f64 / 1e6, 5);
    let indexes = RelationIndexes::build(&relation);
    let key_index = indexes
        .key()
        .ok_or_else(|| io::Error::other("hist has a key index"))?;
    let (_, ns) = time_once(|| {
        for s in &specs {
            black_box(key_index.lookup(&[Value::Int(s.key)]));
        }
    });
    values.set("index.key_lookup_ns", ns as f64 / n as f64, n as u64);
    let (_, ns) = time_once(|| {
        for s in &specs {
            let w = Interval::of(s.birth(), s.birth() + POINT_WINDOW);
            black_box(indexes.lifespan().overlapping_interval(&w));
        }
    });
    values.set("index.lifespan_overlap_ns", ns as f64 / n as f64, n as u64);
    let mut growing = RelationIndexes::build(&Relation::new(hs.clone()));
    let (_, ns) = time_once(|| {
        for (pos, t) in tuples.iter().enumerate() {
            growing.insert(pos, t);
        }
    });
    values.set("index.insert_ns", ns as f64 / n as f64, n as u64);

    // query front half and exec, over the workload's own query texts
    let mut db = Database::new();
    db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
    db.create_relation("hist", hs.clone()).map_err(other)?;
    db.put_relation("hist", relation.clone()).map_err(other)?;
    db.create_relation("grp", gs).map_err(other)?;
    db.put_relation("grp", grp.clone()).map_err(other)?;
    let db = Arc::new(ConcurrentDatabase::from_database(db));
    let snap = db.snapshot();
    let queries = &input.queries;
    let rounds = 300;
    let mut parse_ns = Vec::new();
    let mut optimize_ns = Vec::new();
    let mut plan_ns = Vec::new();
    let mut drain_ns = Vec::new();
    for i in 0..rounds {
        let text = &queries[i % queries.len()];
        let (parsed, ns) = time_once(|| parse_query(text));
        parse_ns.push(ns);
        if let Query::Relation(expr) = parsed.map_err(other)? {
            let ((optimized, _), ns) = time_once(|| optimize(&expr));
            optimize_ns.push(ns);
            let (_, ns) = time_once(|| black_box(plan(&optimized, &*snap)));
            plan_ns.push(ns);
        }
        let (drained, ns) = time_once(|| -> io::Result<u64> {
            match stream_query_on_snapshot(text, &*snap, &ExecOptions::default()).map_err(other)? {
                StreamedQuery::Rows(mut stream) => {
                    while stream.next_batch().map_err(other)?.is_some() {}
                    Ok(stream.rows_streamed())
                }
                _ => Ok(0),
            }
        });
        drained?;
        drain_ns.push(ns);
    }
    values.set(
        "query.parse_us",
        us(median(&parse_ns)),
        parse_ns.len() as u64,
    );
    values.set(
        "query.optimize_us",
        us(median(&optimize_ns)),
        optimize_ns.len() as u64,
    );
    values.set("query.plan_us", us(median(&plan_ns)), plan_ns.len() as u64);
    values.set(
        "exec.drain_us",
        us(median(&drain_ns)),
        drain_ns.len() as u64,
    );
    let ns = time_each(2_000, |_| {
        black_box(db.snapshot());
    });
    values.set("snapshot.take_ns", ns as f64, 2_000);

    // net + obs: the same key probe over a loopback server and in process
    let handle = hrdm_net::Server::bind(
        "127.0.0.1:0",
        Arc::clone(&db),
        hrdm_net::ServerConfig::default(),
    )
    .and_then(hrdm_net::Server::spawn)?;
    let addr = handle.addr().to_string();
    let probe = format!("SELECT-WHEN (K = {}) (hist)", specs[n / 3].key);
    let mut wire = Wire::connect(&addr)?;
    let over_wire = time_each(500, |_| {
        black_box(wire.query(&probe).expect("probe server answers"));
    });
    let in_process = time_each(500, |_| {
        black_box(run_query_on_snapshot(&probe, &*db.snapshot()).expect("probe query runs"));
    });
    values.set(
        "net.wire_overhead_us",
        us(over_wire.saturating_sub(in_process)),
        500,
    );
    let mut client =
        hrdm_net::Client::connect_as(addr.as_str(), "hrdm-benchmark-probe").map_err(other)?;
    let ns = time_each(30, |_| {
        black_box(client.metrics().expect("metrics frame answers"));
    });
    values.set("obs.scrape_us", us(ns), 30);
    drop((wire, client));
    handle.shutdown();

    // storage::wal: framed appends, fsync, replay, bytes per user byte
    let wal_path = input.scratch.join("probe.wal");
    let mut wal = Wal::open(&wal_path)?;
    let fsync_before = hrdm_obs::global().histogram_snapshot("hrdm_wal_fsync_ns");
    let fsync_sum_before = fsync_sum();
    let batches: Vec<&[Vec<u8>]> = encoded.chunks(8).take(60).collect();
    let mut batch_ns = Vec::new();
    for b in &batches {
        let (r, ns) = time_once(|| wal.append_batch(b));
        r?;
        batch_ns.push(ns);
    }
    let fsyncs = hrdm_obs::global()
        .histogram_snapshot("hrdm_wal_fsync_ns")
        .map_or(0, |s| s.count())
        - fsync_before.map_or(0, |s| s.count());
    values.set(
        "wal.append_batch_us",
        us(median(&batch_ns)),
        batch_ns.len() as u64,
    );
    values.set(
        "wal.fsync_mean_us",
        ratio((fsync_sum() - fsync_sum_before) as f64, fsyncs as f64) / 1e3,
        fsyncs,
    );
    drop(wal);
    std::fs::remove_file(&wal_path)?;
    let mut wal = Wal::open(&wal_path)?;
    let logged = n.min(300);
    for t in &tuples[..logged] {
        wal.append(&WalRecord::Insert {
            relation: "hist".to_string(),
            tuple: t.clone(),
        })?;
    }
    drop(wal);
    let user: u64 = specs[..logged].iter().map(TupleSpec::user_bytes).sum();
    values.set(
        "wal.bytes_per_user_byte",
        std::fs::metadata(&wal_path)?.len() as f64 / user as f64,
        logged as u64,
    );
    let ns = time_each(5, |_| {
        let (records, torn) = Wal::replay(&wal_path).expect("probe log replays");
        assert!(records.len() == logged && torn.is_none());
    });
    values.set("wal.replay_ms", ns as f64 / 1e6, 5);

    // storage::concurrent + database: durable writes, with and without a
    // concurrent reader; checkpoints of the dirtied partitions
    let attached = input.scratch.join("attached");
    let cdb = ConcurrentDatabase::open(&attached).map_err(other)?;
    cdb.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
    cdb.create_relation("hist", hs.clone()).map_err(other)?;
    let third = (n / 3).max(1);
    let mut write_ns = Vec::new();
    for t in &tuples[..third] {
        let (r, ns) = time_once(|| cdb.insert("hist", t.clone()));
        r.map_err(other)?;
        write_ns.push(ns);
    }
    values.set(
        "commit.write_us",
        us(median(&write_ns)),
        write_ns.len() as u64,
    );
    let stop = AtomicBool::new(false);
    let with_reader = std::thread::scope(|scope| -> io::Result<Vec<u64>> {
        let reader = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                black_box(run_query_on_snapshot(&probe, &*cdb.snapshot()).is_ok());
            }
        });
        let mut out = Vec::new();
        for t in &tuples[third..2 * third] {
            let (r, ns) = time_once(|| cdb.insert("hist", t.clone()));
            if r.is_err() {
                break;
            }
            out.push(ns);
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("probe reader panicked");
        Ok(out)
    })?;
    values.set(
        "commit.write_with_reader_p50_us",
        us(median(&with_reader)),
        with_reader.len() as u64,
    );
    let mut checkpoint_ns = Vec::new();
    for chunk in tuples[2 * third..].chunks((third / 3).max(1)).take(3) {
        for t in chunk {
            cdb.insert("hist", t.clone()).map_err(other)?;
        }
        let (r, ns) = time_once(|| cdb.checkpoint());
        r.map_err(other)?;
        checkpoint_ns.push(ns);
    }
    values.set(
        "checkpoint.ms",
        median(&checkpoint_ns) as f64 / 1e6,
        checkpoint_ns.len() as u64,
    );
    drop(cdb);

    // storage::{pool, heap, btree, paged}, on the workload's own directory
    let (loaded, ns) = time_once(|| Database::load(input.dir));
    drop(loaded.map_err(other)?);
    values.set("open.ms", ns as f64 / 1e6, 1);
    let heap = largest_file(input.dir, "hist.", ".heap")?;
    let pages = (std::fs::metadata(&heap)?.len() as usize / PAGE_SIZE).clamp(1, 64) as u32;
    let pool = BufferPool::new(128);
    let file = pool.open(&heap)?;
    let mut miss_ns = Vec::new();
    let mut hit_ns = Vec::new();
    for pass in 0..2 {
        for page in 0..pages {
            let (guard, ns) = time_once(|| pool.get(file, page));
            drop(guard?);
            if pass == 0 { &mut miss_ns } else { &mut hit_ns }.push(ns);
        }
    }
    pool.close(file);
    values.set(
        "pool.get_miss_us",
        us(median(&miss_ns)),
        miss_ns.len() as u64,
    );
    values.set(
        "pool.get_hit_ns",
        median(&hit_ns) as f64,
        hit_ns.len() as u64,
    );
    let btx = largest_file(input.dir, "hist.", ".btx")?;
    let pool = BufferPool::new(input.pool_pages);
    let tree = LifespanBTree::open(&btx, Arc::clone(&pool))?;
    let lookups = 50u64;
    let mut rng = crate::rng::Rng::new(input.data.seed, 5 << 40);
    for _ in 0..lookups {
        let lo = rng.range(0, ERA - POINT_WINDOW);
        black_box(tree.range_positions(lo, lo + POINT_WINDOW)?);
    }
    values.set(
        "btree.pages_read_per_lookup",
        pool.faults_for(tree.pool_file()) as f64 / lookups as f64,
        lookups,
    );
    drop(tree);
    let paged = PagedDatabase::open_with_pool(input.dir, BufferPool::new(input.pool_pages))
        .map_err(other)?;
    let mut window_ns = Vec::new();
    for _ in 0..20 {
        let lo = rng.range(0, ERA - POINT_WINDOW);
        let w = Lifespan::interval(lo, lo + POINT_WINDOW);
        let (snap, ns) = time_once(|| paged.window_snapshot(Some(&w)));
        drop(snap.map_err(other)?);
        window_ns.push(ns);
    }
    values.set(
        "paged.window_snapshot_ms",
        median(&window_ns) as f64 / 1e6,
        20,
    );
    std::fs::remove_dir_all(&input.scratch)?;
    Ok(())
}

fn fsync_sum() -> u64 {
    parse_exposition(&hrdm_obs::global().render_prometheus())
        .get("hrdm_wal_fsync_ns_sum")
        .map_or(0, |v| *v as u64)
}

/// Runs the replay three times: once unrecorded to warm whatever the
/// replay warms, then with the recorder off and on. Returns the recorder
/// and the traced and untraced wall times.
fn replay_twice(
    mut replay: impl FnMut(&mut Recorder) -> io::Result<()>,
) -> io::Result<(Recorder, u64, u64)> {
    replay(&mut Recorder::new(false))?;
    let mut off = Recorder::new(false);
    let (r, untraced) = time_once(|| replay(&mut off));
    r?;
    let mut on = Recorder::new(true);
    let (r, traced) = time_once(|| replay(&mut on));
    r?;
    Ok((on, traced, untraced))
}

fn append_trace(ctx: &Ctx, workload: &str, rec: &Recorder) -> io::Result<()> {
    let path = ctx.out.join("trace.jsonl");
    // One file per run set: other workloads' lines are kept.
    let kept: String = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.contains(&format!("\"workload\":\"{workload}\"")))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    file.write_all(kept.as_bytes())?;
    rec.write_jsonl(workload, &mut file)?;
    file.flush()
}

fn inodes(dir: &Path) -> io::Result<HashMap<u64, u64>> {
    use std::os::unix::fs::MetadataExt;
    let mut out = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            out.insert(meta.ino(), meta.len());
        }
    }
    Ok(out)
}

fn finish(values: Values, samples: &[Sample], detail: Vec<Metric>, notes: Vec<String>) -> Outcome {
    let mut outcome = Outcome {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        detail,
        notes,
        ..Outcome::default()
    };
    for p in PER_LAYER {
        let (value, n) = values.0.get(p.name).copied().unwrap_or((0.0, 0));
        outcome.metrics.push(Metric::new(p.name, value, p.unit, n));
    }
    outcome
}

fn split_detail(samples: &[Sample]) -> Vec<Metric> {
    let ((old, old_n), (recent, recent_n)) = old_and_recent_p50_us(samples);
    vec![
        Metric::new("old_history_p50_us", old, "us", old_n),
        Metric::new("recent_history_p50_us", recent, "us", recent_n),
    ]
}

/// The traced run of a read-only served workload.
fn trace_served(ctx: &Ctx, workload: &str, analytic: bool) -> io::Result<Outcome> {
    let (served, _) = start_served(ctx, workload)?;
    let ops = if analytic {
        analytic_set(ctx, served.data, &served.counter)
    } else {
        let mut mix = PointMix::new(served.data, &served.counter, 30);
        (0..REPLAY_POINT_OPS).map(|_| mix.next_op()).collect()
    };
    let mut values = Values::default();

    // 1. the workload's own traffic, with the server's counters around it
    let addr = served.server.addr().to_string();
    let before = scrape(&addr)?;
    let started = Instant::now();
    let samples = in_completion_order(if analytic {
        closed_loop_reads(&addr, started, ctx.window(0.4), 1, |c| cycling(&ops, c))?
    } else {
        closed_loop_reads(&addr, started, ctx.window(0.4), POINT_DEPTH, |c| {
            let mut m = PointMix::new(served.data, &served.counter, 40 + c as u64);
            move || m.next_op()
        })?
    });
    let elapsed = started.elapsed().as_secs_f64();
    let delta = Delta {
        before,
        after: scrape(&addr)?,
    };
    values.set_served_counters(
        &delta,
        samples.len() as u64,
        samples.iter().map(|s| s.ns).sum(),
    );
    values.traffic(&samples, elapsed, if analytic { 0.90 } else { 0.99 });
    values.set(
        "paged.data_pages_over_pool",
        dir_bytes(&served.dir)? as f64 / PAGE_SIZE as f64 / BufferPool::global().capacity() as f64,
        1,
    );
    served.server.kill();

    // 2. the replay, in process, over the same directory
    let db = ConcurrentDatabase::from_database(Database::load(&served.dir).map_err(other)?);
    let mut wrong = 0;
    let mut lo = crate::replay::Loopback::new()?;
    let (rec, traced, untraced) = replay_twice(|rec| {
        for op in &ops {
            wrong += u64::from(!crate::replay::read(rec, &mut lo, &db, op)?);
        }
        Ok(())
    })?;
    drop(db);
    if wrong > 0 {
        return Err(io::Error::other(format!(
            "{wrong} replayed replies were wrong"
        )));
    }
    trace_shares(&mut values, &rec, traced, untraced);
    append_trace(ctx, workload, &rec)?;

    // 3. the probes
    run_probes(
        &mut values,
        &ProbeInput {
            data: served.data,
            dir: &served.dir,
            queries: ops.iter().map(|o| o.text.clone()).collect(),
            scratch: fresh_dir(&ctx.out, &format!("{workload}.scratch"))?,
            pool_pages: ctx.scale.pool_pages,
        },
    )?;
    let notes = vec![format!(
        "counters: {CLIENTS} closed-loop clients for {:.1} s; replay: {} ops in process, {} spans",
        ctx.window(0.4).as_secs_f64(),
        ops.len(),
        rec.spans().len()
    )];
    Ok(finish(values, &samples, split_detail(&samples), notes))
}

/// The traced run of `ingest_mixed`.
fn trace_ingest(ctx: &Ctx) -> io::Result<Outcome> {
    let workload = "ingest_mixed";
    let dir = ctx.build_dir(workload, ctx.ingest_data(0))?;
    let (server, _) = spawn_until_correct(&ctx.hrdmd, &dir, "SELECT-WHEN (K = 0) (hist)", |r| {
        r.rows == 0
    })?;
    let addr = server.addr().to_string();
    let mut values = Values::default();
    let hs = data::hist_scheme();

    // 1. two closed-loop writers with op-count checkpoints
    let before = scrape(&addr)?;
    let window = ctx.window(0.4);
    let stream = Ingest::new(ctx, &dir, &server, 0);
    let (logs, elapsed) = closed_loop_writers(&stream, &addr, Some(window))?;
    let samples = in_completion_order(logs.into_iter().map(|log| log.samples).collect());
    // One more insert dirties one partition; the checkpoint that follows
    // must write that partition and link the rest.
    let last_key = stream.issued();
    Wire::connect(&addr)?.insert(
        "hist",
        TupleSpec::hist(ctx.seed, Births::AppendMostly, last_key).to_tuple(&hs),
    )?;
    let files_before = inodes(&dir)?;
    hrdm_net::Client::connect_as(addr.as_str(), "hrdm-benchmark-control")
        .map_err(other)?
        .checkpoint()
        .map_err(other)?;
    let written: u64 = inodes(&dir)?
        .into_iter()
        .filter(|(ino, _)| !files_before.contains_key(ino))
        .map(|(_, len)| len)
        .sum();
    let delta = Delta {
        before,
        after: scrape(&addr)?,
    };
    values.set_served_counters(&delta, 0, 0);
    values.traffic(&samples, elapsed, 0.99);
    values.set("exec.rows_per_s", 0.0, 0);
    values.set("checkpoint.bytes_written", written as f64, 1);
    values.set(
        "paged.data_pages_over_pool",
        dir_bytes(&dir)? as f64 / PAGE_SIZE as f64 / BufferPool::global().capacity() as f64,
        1,
    );
    server.kill();

    // 2. the replay: the same inserts and op-count checkpoints against an
    // attached database in process
    let replay_dir = ctx.out.join("ingest_mixed.replay");
    let mut lo = crate::replay::Loopback::new()?;
    let (rec, traced, untraced) = replay_twice(|rec| {
        fresh_dir(&ctx.out, "ingest_mixed.replay")?;
        let db = ConcurrentDatabase::open(&replay_dir).map_err(other)?;
        db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
        db.create_relation("hist", hs.clone()).map_err(other)?;
        for key in 0..REPLAY_INGEST_OPS {
            let tuple = TupleSpec::hist(ctx.seed, Births::AppendMostly, key as i64).to_tuple(&hs);
            crate::replay::write(rec, &mut lo, &db, tuple)?;
            if (key + 1).is_multiple_of(REPLAY_INGEST_CHECKPOINT_EVERY) {
                rec.next_request();
                rec.span("harness.request", |rec| {
                    rec.span("checkpoint.run", |_| db.checkpoint())
                })
                .map_err(other)?;
            }
        }
        Ok(())
    })?;
    std::fs::remove_dir_all(&replay_dir)?;
    trace_shares(&mut values, &rec, traced, untraced);
    append_trace(ctx, workload, &rec)?;

    // 3. the probes, on what was ingested
    let ingested = ctx.ingest_data(last_key + 1);
    let counter = SliceCounter::build(ingested.specs());
    let mut mix = PointMix::new(ingested, &counter, 31);
    run_probes(
        &mut values,
        &ProbeInput {
            data: ingested,
            dir: &dir,
            queries: (0..200).map(|_| mix.next_op().text).collect(),
            scratch: fresh_dir(&ctx.out, "ingest_mixed.scratch")?,
            pool_pages: ctx.scale.pool_pages,
        },
    )?;
    let notes = vec![format!(
        "counters: {CLIENTS} closed-loop writers for {:.1} s, checkpoint every {} acks; replay: {} inserts, checkpoint every {}, {} spans",
        window.as_secs_f64(),
        ctx.scale.checkpoint_every,
        REPLAY_INGEST_OPS,
        REPLAY_INGEST_CHECKPOINT_EVERY,
        rec.spans().len()
    )];
    Ok(finish(values, &samples, split_detail(&samples), notes))
}

/// The traced run of `paged_window`.
fn trace_paged(ctx: &Ctx) -> io::Result<Outcome> {
    let workload = "paged_window";
    let (paged, _) = start_paged(ctx)?;
    let mut values = Values::default();
    let mut mix = PointMix::new(paged.data, &paged.counter, 32).with_hot_from(PAGED_HOT_FROM);

    // 1. the workload's own traffic with the pool's counters around it
    let before = paged.pool.stats();
    let dropped_before = hrdm_obs::recorder().totals().1;
    let window = ctx.window(0.4);
    let epoch = Instant::now();
    let mut samples = Vec::new();
    let mut partitions = 0usize;
    while epoch.elapsed() < window {
        let op = mix.slice();
        samples.push(paged_read(&paged.db, &op, epoch));
    }
    let elapsed = epoch.elapsed().as_secs_f64();
    let after = paged.pool.stats();
    let queries = samples.len() as f64;
    let (hits, misses) = (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
    );
    values.traffic(&samples, elapsed, 0.90);
    values.set("pool.hits", hits, 1);
    values.set("pool.misses", misses, 1);
    values.set(
        "pool.evictions",
        (after.evictions - before.evictions) as f64,
        1,
    );
    values.set(
        "pool.writebacks",
        (after.writebacks - before.writebacks) as f64,
        1,
    );
    values.set(
        "pool.hit_ratio",
        ratio(hits, hits + misses),
        (hits + misses) as u64,
    );
    values.set(
        "paged.pages_faulted_per_query",
        ratio(misses, queries),
        samples.len() as u64,
    );
    values.set(
        "paged.data_pages_over_pool",
        dir_bytes(&paged.dir)? as f64 / PAGE_SIZE as f64 / ctx.scale.pool_pages as f64,
        1,
    );
    values.set(
        "obs.events_dropped",
        (hrdm_obs::recorder().totals().1 - dropped_before) as f64,
        1,
    );

    // 2. the replay, single-threaded as the workload itself is
    let ops: Vec<ReadOp> = (0..REPLAY_PAGED_OPS).map(|_| mix.slice()).collect();
    if let Some(map) = paged.db.partition_map("hist") {
        for op in &ops {
            if let Ok(Query::Relation(e)) = parse_query(&op.text) {
                if let Some(w) = hrdm_query::materialization_window(&optimize(&e).0) {
                    partitions += map.overlapping_ids(&w).len();
                }
            }
        }
    }
    values.set(
        "paged.partitions_opened_per_query",
        partitions as f64 / ops.len() as f64,
        ops.len() as u64,
    );
    let mut wrong = 0;
    let (rec, traced, untraced) = replay_twice(|rec| {
        for op in &ops {
            wrong += u64::from(!crate::replay::paged(rec, &paged.db, op)?);
        }
        Ok(())
    })?;
    if wrong > 0 {
        return Err(io::Error::other(format!(
            "{wrong} replayed replies were wrong"
        )));
    }
    trace_shares(&mut values, &rec, traced, untraced);
    append_trace(ctx, workload, &rec)?;
    let (dir, data) = (paged.dir.clone(), paged.data);
    drop(paged);

    // 3. the probes
    run_probes(
        &mut values,
        &ProbeInput {
            data,
            dir: &dir,
            queries: ops.iter().map(|o| o.text.clone()).collect(),
            scratch: fresh_dir(&ctx.out, "paged_window.scratch")?,
            pool_pages: ctx.scale.pool_pages,
        },
    )?;
    let notes = vec![format!(
        "counters: 1 thread for {:.1} s under a {}-page pool; replay: {} windows, {} spans",
        window.as_secs_f64(),
        ctx.scale.pool_pages,
        ops.len(),
        rec.spans().len()
    )];
    Ok(finish(values, &samples, split_detail(&samples), notes))
}

/// The `--trace 1` run of `workload`.
pub fn traced_run(ctx: &Ctx, workload: &str) -> io::Result<Outcome> {
    match workload {
        "point_serve" => trace_served(ctx, workload, false),
        "analytic_stream" => trace_served(ctx, workload, true),
        "ingest_mixed" => trace_ingest(ctx),
        "paged_window" => trace_paged(ctx),
        other => Err(io::Error::other(format!("unknown workload `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing_skips_comments_and_buckets() {
        let text =
            "# HELP x y\n# TYPE x counter\nx 12\nh_bucket{le=\"4\"} 3\nh_sum 40\nh_count 3\n";
        let map = parse_exposition(text);
        assert_eq!(map.len(), 3);
        assert_eq!(map["x"], 12.0);
        assert_eq!(map["h_sum"], 40.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_grouped_by_layer() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.iter().all(|p| p.name.contains('.')));
    }
}

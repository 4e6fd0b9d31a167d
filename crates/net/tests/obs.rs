//! Acceptance tests for the observability layer at the network boundary:
//!
//! * `EXPLAIN ANALYZE` on the 64-partition fixture reports
//!   `partitions: 62/64 pruned` with per-operator actual times — locally
//!   (the shell's path) and over the wire (the `Prepare` path);
//! * the `Metrics` frame emits a Prometheus text exposition covering the
//!   WAL, group-commit, query, and net metric families;
//! * the slow-query log rides along as `# slowlog:` comment lines, with
//!   plans, bounded FIFO;
//! * `hrdm_net_socket_writes_total` shows a one-chunk answer leaving in
//!   one socket write.

use hrdm_core::prelude::*;
use hrdm_net::{Client, Server, ServerConfig, ServerHandle};
use hrdm_query::{explain_analyze_query_text, QueryResult};
use hrdm_storage::{ConcurrentDatabase, PartitionPolicy};
use std::sync::Arc;
use std::time::Duration;

/// 64 partitions over a 2^20-chronon era (span 2^14), one tuple per
/// partition so every partition is materialized — the same fixture the
/// wire-EXPLAIN test and the gated partition benches use.
fn partitioned_db() -> Arc<ConcurrentDatabase> {
    let db = Arc::new(ConcurrentDatabase::new());
    db.set_partition_policy(PartitionPolicy::SpanLog2(14));
    let era = Lifespan::interval(0, 1 << 20);
    let scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap();
    db.create_relation("r", scheme.clone()).unwrap();
    for p in 0..64i64 {
        let lo = p << 14;
        let life = Lifespan::interval(lo, lo + 50);
        let t = Tuple::builder(life.clone())
            .constant("K", p)
            .value("V", TemporalValue::constant(&life, Value::Int(p)))
            .finish(&scheme)
            .unwrap();
        db.insert("r", t).unwrap();
    }
    db
}

/// A slice covering partitions 32 and 33 only: 62 of 64 pruned.
fn pruning_query() -> String {
    let lo = 32i64 << 14;
    let hi = (34i64 << 14) - 1;
    format!("TIMESLICE [{lo}..{hi}] (r)")
}

fn assert_analyzed(text: &str) {
    assert!(text.contains("== explain analyze =="), "{text}");
    assert!(text.contains("partitions: 62/64 pruned"), "{text}");
    // Both operators (τ over the scan) carry measured annotations, and
    // the two matching tuples are reported on each.
    assert!(text.matches("(actual time=").count() >= 2, "{text}");
    assert!(text.contains("rows=2)"), "{text}");
    // "Nonzero per-operator times": probing a 64-partition map cannot
    // take a measured 0 ns.
    assert!(!text.contains("time=0ns"), "{text}");
    assert!(text.contains("planning: "), "{text}");
    assert!(text.contains("execution: "), "{text}");
    assert!(text.contains("rows: 2"), "{text}");
}

#[test]
fn explain_analyze_reports_pruning_and_operator_times_locally() {
    let db = partitioned_db();
    let text = explain_analyze_query_text(&pruning_query(), &*db.snapshot()).unwrap();
    assert_analyzed(&text);
}

#[test]
fn explain_analyze_reports_pruning_and_operator_times_over_the_wire() {
    let db = partitioned_db();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // The full `EXPLAIN ANALYZE …` line travels as a Prepare; the server
    // strips the prefix and answers with the annotated plan.
    let text = client
        .explain(&format!("EXPLAIN ANALYZE {}", pruning_query()))
        .unwrap();
    assert_analyzed(&text);

    // A plain Prepare still returns the unannotated plan.
    let plain = client.explain(&pruning_query()).unwrap();
    assert!(plain.contains("partitions: 62/64 pruned"), "{plain}");
    assert!(!plain.contains("actual time="), "{plain}");
    server.shutdown();
}

/// The value of the sample line `name value` in an exposition.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in the exposition"))
}

/// A one-chunk answer — `RelationHeader`, `RowChunk`, `Done` — leaves in
/// one socket write: the session flushes once, when it has no request
/// left and is about to wait for the next.
#[test]
fn a_one_chunk_query_costs_one_socket_write() {
    let db = partitioned_db();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let writes = "hrdm_net_socket_writes_total";
    let before = sample(&client.metrics().unwrap(), writes);
    match client.query(&pruning_query()).unwrap() {
        QueryResult::Relation(r) => assert_eq!(r.len(), 2),
        other => panic!("expected relation, got {other:?}"),
    }
    let after = sample(&client.metrics().unwrap(), writes);
    // The first `Metrics` reply was encoded after its sample was taken,
    // so one of the writes in between carried it.
    assert_eq!(after - before - 1.0, 1.0, "socket writes for the query");
    server.shutdown();
}

/// One line of Prometheus text exposition is a comment or `name value`.
fn assert_valid_exposition(text: &str) {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("sample line has a metric name");
        let value = parts.next().expect("sample line has a value");
        assert!(parts.next().is_none(), "trailing tokens in {line:?}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_{}=\"+.,-".contains(c)),
            "bad metric name in {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
    }
}

fn attached_server(dir: &std::path::Path) -> (ServerHandle, Arc<ConcurrentDatabase>) {
    let db = Arc::new(ConcurrentDatabase::open(dir).unwrap());
    let config = ServerConfig {
        // Record every request in the slow-query log.
        slow_query_threshold: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db), config)
        .unwrap()
        .spawn()
        .unwrap();
    (server, db)
}

#[test]
fn metrics_exposition_covers_wal_commit_query_and_net_families() {
    let dir = std::env::temp_dir().join(format!("hrdm-obs-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (server, _db) = attached_server(&dir);

    let mut client = Client::connect(server.addr()).unwrap();
    let era = Lifespan::interval(0, 1000);
    let scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .build()
        .unwrap();
    client.create_relation("r", scheme.clone()).unwrap();
    for k in 0..4i64 {
        let t = Tuple::builder(era.clone())
            .constant("K", k)
            .finish(&scheme)
            .unwrap();
        client.insert("r", t).unwrap();
    }
    // A read, so the query-layer counters and the query latency
    // histogram have something to show.
    client.query("r").unwrap();

    let text = client.metrics().unwrap();
    assert_valid_exposition(&text);

    // WAL family (the writes above were WAL-appended and fsynced).
    assert!(
        text.contains("# TYPE hrdm_wal_append_ns histogram"),
        "{text}"
    );
    assert!(text.contains("hrdm_wal_fsync_ns_count"), "{text}");
    // Group-commit family.
    assert!(
        text.contains("# TYPE hrdm_commit_batch_size histogram"),
        "{text}"
    );
    assert!(text.contains("hrdm_snapshot_publish_total"), "{text}");
    // Query family (the scan of `r`).
    assert!(text.contains("hrdm_query_seq_scans_total"), "{text}");
    // Net family: per-kind latency histograms, bytes, connections.
    assert!(
        text.contains("# TYPE hrdm_net_request_ns_query histogram"),
        "{text}"
    );
    assert!(text.contains("hrdm_net_request_ns_execute_count"), "{text}");
    assert!(text.contains("hrdm_net_bytes_in_total"), "{text}");
    assert!(text.contains("hrdm_net_bytes_out_total"), "{text}");
    assert!(text.contains("hrdm_net_connections_active 1"), "{text}");

    // The slow-query log rides along as comment lines (threshold 0:
    // every request qualifies), query entries carrying their plans.
    assert!(text.contains("# slowlog:"), "{text}");
    assert!(text.contains("kind=query"), "{text}");
    assert!(text.contains("SeqScan"), "{text}");

    // The same registry feeds `ServerStats`: bytes and latency
    // percentiles arrive over the `Stats` frame too.
    let stats = client.stats().unwrap();
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert!(stats.request_p50_ns > 0);
    assert!(stats.request_p99_ns >= stats.request_p50_ns);
    let rendered = format!("{stats}");
    assert!(rendered.contains("bytes: "), "{rendered}");
    assert!(rendered.contains("latency: p50 "), "{rendered}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

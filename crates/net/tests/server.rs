//! Integration tests for `hrdmd`: concurrent clients over real TCP
//! sockets against one shared [`ConcurrentDatabase`].
//!
//! The headline guarantees:
//!
//! * N threaded clients issuing interleaved reads and writes observe the
//!   same **prefix consistency** as in-process readers
//!   (`crates/storage/tests/concurrency.rs`);
//! * a client killed mid-request leaks no session slot;
//! * `Cancel` aborts a long result stream, and a queued one only its
//!   target among pipelined requests;
//! * the idle timeout closes idle and mid-frame-stalled sessions, never
//!   one streaming to a slow reader;
//! * `EXPLAIN` over the wire still reports index scans and partition
//!   pruning — planner fidelity survives the network boundary.

use hrdm_core::prelude::*;
use hrdm_net::{
    encode_frame_traced, read_frame_traced, write_frame_traced, Client, Frame, NetError, Server,
    ServerConfig, WireError, PROTO_VERSION, WIRE_VERSION,
};
use hrdm_query::QueryResult;
use hrdm_storage::{ConcurrentDatabase, PartitionPolicy};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 1_000_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tup(k: i64) -> Tuple {
    let lo = k % 1000;
    let life = Lifespan::interval(lo, lo + 50);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

fn spawn_server(config: ServerConfig) -> (hrdm_net::ServerHandle, Arc<ConcurrentDatabase>) {
    let db = Arc::new(ConcurrentDatabase::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db), config).unwrap();
    (server.spawn().unwrap(), db)
}

fn relation_keys(r: &Relation) -> BTreeSet<i64> {
    r.iter()
        .map(|t| match t.key_values(r.scheme()).unwrap()[0] {
            Value::Int(k) => k,
            ref other => panic!("non-int key {other:?}"),
        })
        .collect()
}

#[test]
fn hello_and_basic_query_round_trip() {
    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("emp", scheme()).unwrap();
    db.insert("emp", tup(1)).unwrap();
    db.insert("emp", tup(2)).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.server_name().starts_with("hrdmd/"));
    match client.query("emp").unwrap() {
        QueryResult::Relation(r) => assert_eq!(relation_keys(&r), BTreeSet::from([1, 2])),
        other => panic!("expected relation, got {other:?}"),
    }
    match client.query("WHEN (emp)").unwrap() {
        QueryResult::Lifespan(l) => assert!(!l.is_empty()),
        other => panic!("expected lifespan, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn writes_over_the_wire_are_readable_and_counted() {
    let (server, _db) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.create_relation("r", scheme()).unwrap();
    for k in 0..10 {
        client.insert("r", tup(k)).unwrap();
    }
    let rows = client.materialize("copy", "r").unwrap();
    assert_eq!(rows, 10);
    match client.query("copy").unwrap() {
        QueryResult::Relation(r) => assert_eq!(r.len(), 10),
        other => panic!("expected relation, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    // create + 10 inserts + materialize's create+put = 13 committed ops.
    assert_eq!(stats.commit_ops, 13);
    assert!(stats.requests >= 12);
    assert!(stats.frames_in >= 12);
    assert!(stats.frames_out >= 12);
    assert!(stats
        .relations
        .iter()
        .any(|(name, count)| name == "copy" && *count == 10));
    server.shutdown();
}

#[test]
fn structured_errors_carry_model_variants_across_the_wire() {
    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("r", scheme()).unwrap();
    db.insert("r", tup(7)).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    // Unknown relation in a query → Model error with the variant intact.
    match client.query("WHEN (ghost)") {
        Err(NetError::Remote(WireError::Model { variant, message })) => {
            assert_eq!(variant, "UnknownRelation");
            assert!(message.contains("ghost"));
        }
        other => panic!("expected UnknownRelation over the wire, got {other:?}"),
    }
    // Parse error → Parse.
    assert!(matches!(
        client.query("NOT A QUERY (("),
        Err(NetError::Remote(WireError::Parse(_)))
    ));
    // Key conflict on insert → Model(KeyViolation).
    match client.insert("r", tup(7)) {
        Err(NetError::Remote(WireError::Model { variant, .. })) => {
            assert_eq!(variant, "KeyViolation");
        }
        other => panic!("expected KeyViolation, got {other:?}"),
    }
    // Checkpoint on a detached database → Db(Mode).
    match client.checkpoint() {
        Err(NetError::Remote(WireError::Db { variant, .. })) => assert_eq!(variant, "Mode"),
        other => panic!("expected Db(Mode), got {other:?}"),
    }
    server.shutdown();
}

/// The acceptance criterion: 8 concurrent wire clients — writers
/// inserting sequential keys, readers querying — and every observed
/// result is a contiguous prefix `{0..len}` of the commit order, exactly
/// like the in-process oracle in `crates/storage/tests/concurrency.rs`.
#[test]
fn eight_clients_observe_prefix_consistency() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const PER_WRITER: i64 = 40;

    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("r", scheme()).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: disjoint key ranges, issued strictly in a global order per
    // writer. With multiple independent writers, prefix consistency means
    // each writer's own keys appear in contiguous prefixes of its
    // sequence (no writer's later key without its earlier keys).
    let writer_threads: Vec<_> = (0..WRITERS as i64)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..PER_WRITER {
                    client.insert("r", tup(w * 10_000 + i)).unwrap();
                }
            })
        })
        .collect();

    let reader_threads: Vec<_> = (0..READERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut checks = 0u64;
                let mut last_len = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let keys = match client.query("r").unwrap() {
                        QueryResult::Relation(r) => relation_keys(&r),
                        other => panic!("expected relation, got {other:?}"),
                    };
                    // Per-writer contiguity: writer w's observed keys are
                    // exactly {w*10_000 .. w*10_000 + count}.
                    for w in 0..WRITERS as i64 {
                        let observed: Vec<i64> = keys
                            .iter()
                            .copied()
                            .filter(|k| (w * 10_000..(w + 1) * 10_000).contains(k))
                            .collect();
                        let expect: Vec<i64> =
                            (w * 10_000..w * 10_000 + observed.len() as i64).collect();
                        assert_eq!(
                            observed, expect,
                            "writer {w}'s keys are not a contiguous prefix"
                        );
                    }
                    assert!(keys.len() >= last_len, "observed state went backwards");
                    last_len = keys.len();
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    for t in writer_threads {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = reader_threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(checks > 0, "readers never observed anything");
    assert_eq!(
        db.snapshot().relation("r").unwrap().len(),
        WRITERS * PER_WRITER as usize
    );
    // Group commit formed batches from the concurrent wire writers.
    let stats = server.stats();
    assert_eq!(stats.commit_ops, 1 + (WRITERS as u64) * PER_WRITER as u64);
    server.shutdown();
}

/// A client killed mid-request must not leak its session slot: the
/// server's active count returns to zero and new connections still work.
#[test]
fn killed_client_leaks_no_session_slot() {
    let (server, db) = spawn_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    db.create_relation("r", scheme()).unwrap();

    // Kill one client after the handshake, mid-frame: write a length
    // prefix promising more bytes than ever arrive, then drop.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&encode_frame_traced(
            1,
            0,
            &Frame::Hello {
                version: PROTO_VERSION,
                client: "doomed".into(),
            },
        ))
        .unwrap();
        let (_, _, ack) = read_frame_traced(&mut raw).unwrap();
        assert!(matches!(ack, Frame::HelloAck { .. }));
        raw.write_all(&500u32.to_be_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        // dropped here — connection dies mid-frame
    }
    // And one more that dies before even saying hello.
    drop(TcpStream::connect(server.addr()).unwrap());

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.active_connections(), 0, "session slot leaked");

    // Both slots are free again: two fresh clients fit simultaneously.
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    assert!(a.query("r").is_ok());
    assert!(b.query("r").is_ok());
    server.shutdown();
}

/// Connections beyond `max_connections` are refused with a structured
/// `Unavailable` error, and a freed slot is reusable.
#[test]
fn connection_limit_is_enforced_with_a_structured_refusal() {
    let (server, _db) = spawn_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let first = Client::connect(server.addr()).unwrap();
    match Client::connect(server.addr()) {
        Err(NetError::Remote(WireError::Unavailable(m))) => {
            assert!(m.contains("connection limit"), "{m}");
        }
        Err(other) => panic!("expected Unavailable, got {other:?}"),
        Ok(_) => panic!("expected Unavailable, got a session"),
    }
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(Client::connect(server.addr()).is_ok());
    server.shutdown();
}

/// `Cancel` aborts a long result stream: the client gets `Cancelled`
/// instead of the full result, and the session survives for the next
/// request.
#[test]
fn cancel_aborts_a_long_scan() {
    let (server, db) = spawn_server(ServerConfig {
        chunk_rows: 1, // maximal cancellation granularity
        ..ServerConfig::default()
    });
    db.create_relation("r", scheme()).unwrap();
    for k in 0..3000 {
        db.insert("r", tup(k)).unwrap();
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let mut canceller = client.canceller().unwrap();
    let req = client.next_request_id();
    // Fire the cancel from another thread while the stream is running.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        canceller.cancel(req).unwrap();
    });
    match client.query("r") {
        Err(NetError::Remote(WireError::Cancelled)) => {}
        Ok(QueryResult::Relation(r)) => {
            // The race is real: the whole stream may have finished before
            // the cancel landed. That outcome must be the *full* result.
            assert_eq!(r.len(), 3000);
        }
        other => panic!("expected Cancelled or the full result, got {other:?}"),
    }
    killer.join().unwrap();
    // The session is still usable afterwards.
    match client.query("WHEN (r)").unwrap() {
        QueryResult::Lifespan(l) => assert!(!l.is_empty()),
        other => panic!("expected lifespan, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.cancelled <= 1);
    server.shutdown();
}

/// Row and byte caps turn oversized results into structured `Limit`
/// errors instead of unbounded streams.
#[test]
fn result_caps_are_enforced() {
    let (server, db) = spawn_server(ServerConfig {
        max_result_rows: 5,
        ..ServerConfig::default()
    });
    db.create_relation("r", scheme()).unwrap();
    for k in 0..10 {
        db.insert("r", tup(k)).unwrap();
    }
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("r") {
        Err(NetError::Remote(WireError::Limit(m))) => assert!(m.contains("rows"), "{m}"),
        other => panic!("expected Limit, got {other:?}"),
    }
    // A selective query under the cap still works on the same session.
    assert!(client.query("SELECT-WHEN (K = 3) (r)").is_ok());
    server.shutdown();
}

/// Cross-version `Hello` negotiation fails cleanly: a structured error
/// frame naming both versions, then the connection closes.
#[test]
fn cross_version_hello_fails_cleanly() {
    let (server, _db) = spawn_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&encode_frame_traced(
        1,
        0,
        &Frame::Hello {
            version: PROTO_VERSION + 1,
            client: "from-the-future".into(),
        },
    ))
    .unwrap();
    match read_frame_traced(&mut raw) {
        Ok((
            _,
            _,
            Frame::Error {
                error: WireError::Protocol(m),
            },
        )) => {
            assert!(m.contains("version mismatch"), "{m}");
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
    // The server hung up: the next read is EOF, not a hang.
    assert!(read_frame_traced(&mut raw).is_err());
    server.shutdown();
}

/// A first frame that is not `Hello` is refused.
#[test]
fn non_hello_opener_is_refused() {
    let (server, _db) = spawn_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame_traced(&mut raw, 1, 0, &Frame::Stats).unwrap();
    match read_frame_traced(&mut raw) {
        Ok((
            _,
            _,
            Frame::Error {
                error: WireError::Protocol(m),
            },
        )) => {
            assert!(m.contains("Hello"), "{m}");
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
    server.shutdown();
}

/// The acceptance criterion's planner-fidelity half: an over-the-wire
/// `EXPLAIN` of a literal TIMESLICE on a partitioned relation reports the
/// lifespan index scan *and* the partition pruning counts — the server
/// plans on the same snapshots an in-process reader would.
#[test]
fn explain_over_the_wire_reports_index_scan_and_partition_pruning() {
    let db = Arc::new(ConcurrentDatabase::new());
    // 64 partitions over a 2^20-chronon era (span 2^14), one tuple per
    // partition so every partition is materialized.
    db.set_partition_policy(PartitionPolicy::SpanLog2(14));
    let era = Lifespan::interval(0, 1 << 20);
    let part_scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap();
    db.create_relation("r", part_scheme.clone()).unwrap();
    for p in 0..64i64 {
        let lo = p << 14;
        let life = Lifespan::interval(lo, lo + 50);
        let t = Tuple::builder(life.clone())
            .constant("K", p)
            .value("V", TemporalValue::constant(&life, Value::Int(p)))
            .finish(&part_scheme)
            .unwrap();
        db.insert("r", t).unwrap();
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    // A slice covering partitions 32 and 33 only: 62 of 64 pruned.
    let lo = 32i64 << 14;
    let hi = (34i64 << 14) - 1;
    let plan = client
        .explain(&format!("TIMESLICE [{lo}..{hi}] (r)"))
        .unwrap();
    assert!(plan.contains("IndexScan(lifespan"), "{plan}");
    assert!(plan.contains("partitions: 62/64 pruned"), "{plan}");

    // And the planned execution agrees with what the plan promises.
    match client
        .query(&format!("TIMESLICE [{lo}..{hi}] (r)"))
        .unwrap()
    {
        QueryResult::Relation(r) => assert_eq!(relation_keys(&r), BTreeSet::from([32, 33])),
        other => panic!("expected relation, got {other:?}"),
    }
    server.shutdown();
}

/// Graceful shutdown drains an in-flight write: a request racing the
/// shutdown either completes durably or is refused — never half-applied.
#[test]
fn shutdown_drains_in_flight_requests() {
    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("r", scheme()).unwrap();
    let addr = server.addr();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut acked = 0u64;
        for k in 0..200 {
            match client.insert("r", tup(k)) {
                Ok(()) => acked += 1,
                Err(_) => break, // shutdown reached this session
            }
        }
        acked
    });
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    let acked = writer.join().unwrap();
    // Every acknowledged write is in the committed state — the shutdown
    // drained them, and nothing unacknowledged was half-applied.
    let committed = db.snapshot().relation("r").unwrap().len() as u64;
    assert_eq!(committed, acked, "ack/commit mismatch across shutdown");
}

/// Create-or-replace materialization is atomic across connections: two
/// clients racing `m := r` on a name that does not exist yet must BOTH
/// succeed (one create wins inside the commit batch, both puts apply).
#[test]
fn racing_remote_materializations_both_succeed() {
    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("r", scheme()).unwrap();
    for k in 0..5 {
        db.insert("r", tup(k)).unwrap();
    }
    let addr = server.addr();
    let racers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.materialize("m", "r")
            })
        })
        .collect();
    for r in racers {
        let rows = r
            .join()
            .unwrap()
            .expect("every racing materialize succeeds");
        assert_eq!(rows, 5);
    }
    assert_eq!(db.snapshot().relation("m").unwrap().len(), 5);
    server.shutdown();
}

/// The paper's plain `UNION` keeps both operands' tuples, so the union of
/// two overlapping TIME-SLICEs holds two tuples per object — same key,
/// different lifespans (Fig. 11's "counter-intuitive" result). The client
/// must hand that relation over as the server computed it, not reject it
/// for violating a key constraint query results are not subject to.
#[test]
fn query_returns_a_union_whose_tuples_share_keys() {
    let (server, db) = spawn_server(ServerConfig::default());
    db.create_relation("emp", scheme()).unwrap();
    for k in [1, 2, 3] {
        db.insert("emp", tup(k)).unwrap(); // alive on [k, k + 50]
    }
    let text = "TIMESLICE [0..30] (emp) UNION TIMESLICE [20..60] (emp)";
    let expected = match hrdm_query::run_query_on_snapshot(text, &*db.snapshot()).unwrap() {
        QueryResult::Relation(r) => r,
        other => panic!("expected relation, got {other:?}"),
    };
    assert_eq!(expected.len(), 6, "two slices of each of three objects");
    assert!(expected.check_key_constraint().is_err());

    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(text).unwrap() {
        QueryResult::Relation(r) => assert_eq!(r, expected),
        other => panic!("expected relation, got {other:?}"),
    }
    server.shutdown();
}

/// Assembling a streamed result is linear in its size: doubling a scan
/// from 12 500 to 25 000 rows must about double the time of
/// `Client::query`, not quadruple it (the keyed re-insert it used to do
/// scanned every earlier tuple for each arriving one). The bound is a
/// ratio of best-of-three timings on the same machine, not a wall-clock
/// constant.
#[test]
fn query_assembles_a_25k_row_scan_in_linear_time() {
    let (server, db) = spawn_server(ServerConfig::default());
    for (name, n) in [("half", 12_500i64), ("full", 25_000)] {
        db.create_relation(name, scheme()).unwrap();
        let tuples: Vec<Tuple> = (0..n).map(tup).collect();
        db.put_relation(name, Relation::from_parts_unchecked(scheme(), tuples))
            .unwrap();
    }
    let mut client = Client::connect(server.addr()).unwrap();
    let mut best_of_three = |name: &str, rows: usize| {
        (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                match client.query(name).unwrap() {
                    QueryResult::Relation(r) => assert_eq!(r.len(), rows),
                    other => panic!("expected relation, got {other:?}"),
                }
                started.elapsed()
            })
            .min()
            .unwrap()
    };
    let half = best_of_three("half", 12_500);
    let full = best_of_three("full", 25_000);
    let ratio = full.as_secs_f64() / half.as_secs_f64();
    assert!(
        ratio < 3.0,
        "25k rows took {full:?}, 12.5k rows {half:?}: ratio {ratio:.2} (linear ≈ 2, quadratic ≈ 4)"
    );
    server.shutdown();
}

/// The cancel-latency acceptance scenario: on a 100 000-row scan, a
/// `Cancel` that lands while the stream is live aborts it mid-scan — the
/// client receives a partial row count and a structured `Cancelled`, not
/// the full result. Driven over raw frames so the test controls exactly
/// when the cancel is sent (after the stream has demonstrably started)
/// instead of racing a sleep against the server.
#[test]
fn cancel_aborts_a_100k_scan_mid_stream() {
    let (server, db) = spawn_server(ServerConfig {
        chunk_rows: 64,
        ..ServerConfig::default()
    });
    db.create_relation("r", scheme()).unwrap();
    let tuples: Vec<Tuple> = (0..100_000i64).map(tup).collect();
    // Keys 0..100_000 are distinct by construction; the unchecked
    // constructor skips the O(n²) key-constraint validation, which would
    // dominate the test at this scale.
    db.put_relation("r", Relation::from_parts_unchecked(scheme(), tuples))
        .unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write_frame_traced(
        &mut raw,
        1,
        0,
        &Frame::Hello {
            version: PROTO_VERSION,
            client: "cancel-acceptance".into(),
        },
    )
    .unwrap();
    match read_frame_traced(&mut raw).unwrap() {
        (1, _, Frame::HelloAck { .. }) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    write_frame_traced(&mut raw, 2, 0, &Frame::Query { text: "r".into() }).unwrap();
    // The live executor streams before it knows the total: header first.
    match read_frame_traced(&mut raw).unwrap() {
        (2, _, Frame::RelationHeader { rows, .. }) => {
            assert_eq!(rows, 0, "streaming headers must not pre-announce totals");
        }
        other => panic!("expected RelationHeader, got {other:?}"),
    }
    // One chunk proves the scan is running; then cancel immediately, with
    // ~99.9% of the scan still ahead of the server.
    let mut received = 0usize;
    match read_frame_traced(&mut raw).unwrap() {
        (2, _, Frame::RowChunk { tuples }) => received += tuples.len(),
        other => panic!("expected RowChunk, got {other:?}"),
    }
    write_frame_traced(&mut raw, 2, 0, &Frame::Cancel).unwrap();

    // Drain: buffered chunks may still arrive, then the executor's probe
    // fires at a batch boundary and the stream ends in `Cancelled`.
    loop {
        match read_frame_traced(&mut raw).unwrap() {
            (2, _, Frame::RowChunk { tuples }) => received += tuples.len(),
            (
                2,
                _,
                Frame::Error {
                    error: WireError::Cancelled,
                },
            ) => break,
            (2, _, Frame::Done { .. }) => panic!("scan ran to completion despite the cancel"),
            other => panic!("expected RowChunk/Cancelled, got {other:?}"),
        }
    }
    assert!(
        received > 0 && received < 100_000,
        "expected a partial stream, got {received} of 100000 rows"
    );

    // The session survives for the next request on the same socket.
    write_frame_traced(
        &mut raw,
        3,
        0,
        &Frame::Query {
            text: "WHEN (r)".into(),
        },
    )
    .unwrap();
    match read_frame_traced(&mut raw).unwrap() {
        (3, _, Frame::LifespanResult { lifespan }) => assert!(!lifespan.is_empty()),
        other => panic!("expected LifespanResult, got {other:?}"),
    }

    // The server accounted the abort and the partial stream.
    let mut observer = Client::connect(server.addr()).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.cancelled, 1);
    assert!(
        stats.rows_streamed as usize >= received && (stats.rows_streamed as usize) < 100_000,
        "rows_streamed = {}",
        stats.rows_streamed
    );
    assert!(stats.batches_streamed > 0);
    server.shutdown();
}

/// A raw socket past the handshake, with a read timeout long enough that
/// only a server-side bug can trip it.
fn raw_session(addr: std::net::SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write_frame_traced(
        &mut raw,
        1,
        0,
        &Frame::Hello {
            version: PROTO_VERSION,
            client: "raw".into(),
        },
    )
    .unwrap();
    match read_frame_traced(&mut raw).unwrap() {
        (1, _, Frame::HelloAck { .. }) => raw,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Reads request `req`'s answer to a relation query: the tuples it
/// streamed and the frame that ended it (`Done` or `Error`).
fn read_stream(raw: &mut TcpStream, req: u64) -> (Vec<Tuple>, Frame) {
    match read_frame_traced(raw).unwrap() {
        (r, _, Frame::RelationHeader { .. }) if r == req => {}
        (r, _, end @ Frame::Error { .. }) if r == req => return (Vec::new(), end),
        other => panic!("expected request {req}'s header, got {other:?}"),
    }
    let mut tuples = Vec::new();
    loop {
        match read_frame_traced(raw).unwrap() {
            (r, _, Frame::RowChunk { tuples: chunk }) if r == req => tuples.extend(chunk),
            (r, _, end) if r == req => return (tuples, end),
            other => panic!("expected request {req}'s stream, got {other:?}"),
        }
    }
}

/// Five frames in one write — Hello, a point query, a 100 000-row scan,
/// a `Cancel` for the scan, another point query — are answered in order:
/// both point queries in full, the scan cut off by its cancel (or
/// complete, had it finished first). The cancel touches nothing else.
#[test]
fn pipelined_requests_answer_in_order_and_a_queued_cancel_hits_only_its_target() {
    let (server, db) = spawn_server(ServerConfig {
        chunk_rows: 64,
        ..ServerConfig::default()
    });
    db.create_relation("r", scheme()).unwrap();
    let tuples: Vec<Tuple> = (0..100_000i64).map(tup).collect();
    db.put_relation("r", Relation::from_parts_unchecked(scheme(), tuples))
        .unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut burst = Vec::new();
    for (req, frame) in [
        (
            1,
            Frame::Hello {
                version: PROTO_VERSION,
                client: "pipelined".into(),
            },
        ),
        (
            2,
            Frame::Query {
                text: "SELECT-WHEN (K = 3) (r)".into(),
            },
        ),
        (3, Frame::Query { text: "r".into() }),
        (3, Frame::Cancel),
        (
            4,
            Frame::Query {
                text: "SELECT-WHEN (K = 7) (r)".into(),
            },
        ),
    ] {
        burst.extend(encode_frame_traced(req, 0, &frame));
    }
    raw.write_all(&burst).unwrap();

    match read_frame_traced(&mut raw).unwrap() {
        (1, _, Frame::HelloAck { .. }) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let key = |t: &Tuple| t.key_values(&scheme()).unwrap()[0].clone();
    let (point, end) = read_stream(&mut raw, 2);
    assert_eq!(end, Frame::Done { rows: 1 });
    assert_eq!(point.iter().map(key).collect::<Vec<_>>(), [Value::Int(3)]);

    match read_stream(&mut raw, 3) {
        (
            _,
            Frame::Error {
                error: WireError::Cancelled,
            },
        ) => {}
        (rows, Frame::Done { rows: n }) => {
            assert_eq!(
                (rows.len(), n),
                (100_000, 100_000),
                "a finished scan is whole"
            );
        }
        (_, other) => panic!("expected Cancelled or Done for the scan, got {other:?}"),
    }

    let (point, end) = read_stream(&mut raw, 4);
    assert_eq!(end, Frame::Done { rows: 1 });
    assert_eq!(point.iter().map(key).collect::<Vec<_>>(), [Value::Int(7)]);
    assert!(server.stats().cancelled <= 1);
    server.shutdown();
}

/// `read_timeout` closes a session only while it waits for a request: an
/// idle session and one stalled in the middle of a frame are closed, but
/// one streaming a result to a reader that pauses for longer than the
/// timeout is not.
#[test]
fn idle_timeout_kills_only_idle_sessions() {
    let timeout = Duration::from_millis(200);
    let (server, db) = spawn_server(ServerConfig {
        read_timeout: Some(timeout),
        ..ServerConfig::default()
    });
    // 16 000 tuples sharing one 1 KiB string: about 16 MB on the wire,
    // several times what loopback socket buffers hold, so a reader that
    // stops reading stalls the server mid-stream.
    let era = Lifespan::interval(0, 1_000_000);
    let wide = Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("S", HistoricalDomain::string(), era)
        .build()
        .unwrap();
    let text: Arc<str> = "x".repeat(1024).into();
    let life = Lifespan::interval(0, 50);
    let tuples: Vec<Tuple> = (0..16_000i64)
        .map(|k| {
            Tuple::builder(life.clone())
                .constant("K", k)
                .value(
                    "S",
                    TemporalValue::constant(&life, Value::Str(Arc::clone(&text))),
                )
                .finish(&wide)
                .unwrap()
        })
        .collect();
    db.create_relation("wide", wide.clone()).unwrap();
    db.put_relation("wide", Relation::from_parts_unchecked(wide, tuples))
        .unwrap();

    // Idle after the handshake: closed without a reply.
    let mut idle = raw_session(server.addr());
    let started = std::time::Instant::now();
    assert!(
        read_frame_traced(&mut idle).is_err(),
        "idle session survived"
    );
    assert!(
        started.elapsed() >= timeout / 2,
        "closed before the timeout"
    );

    // A reader that pauses mid-stream for three timeouts still gets the
    // whole result, and the session answers the next request.
    let mut slow = raw_session(server.addr());
    write_frame_traced(
        &mut slow,
        2,
        0,
        &Frame::Query {
            text: "wide".into(),
        },
    )
    .unwrap();
    match read_frame_traced(&mut slow).unwrap() {
        (2, _, Frame::RelationHeader { .. }) => {}
        other => panic!("expected RelationHeader, got {other:?}"),
    }
    let mut received = 0;
    match read_frame_traced(&mut slow).unwrap() {
        (2, _, Frame::RowChunk { tuples }) => received += tuples.len(),
        other => panic!("expected RowChunk, got {other:?}"),
    }
    std::thread::sleep(3 * timeout);
    loop {
        match read_frame_traced(&mut slow).unwrap() {
            (2, _, Frame::RowChunk { tuples }) => received += tuples.len(),
            (2, _, Frame::Done { rows }) => {
                assert_eq!((received, rows), (16_000, 16_000));
                break;
            }
            other => panic!("expected RowChunk/Done, got {other:?}"),
        }
    }
    write_frame_traced(
        &mut slow,
        3,
        0,
        &Frame::Query {
            text: "WHEN (wide)".into(),
        },
    )
    .unwrap();
    match read_frame_traced(&mut slow).unwrap() {
        (3, _, Frame::LifespanResult { lifespan }) => assert!(!lifespan.is_empty()),
        other => panic!("expected LifespanResult, got {other:?}"),
    }

    // A frame whose length prefix arrived but whose body stalls past the
    // timeout: closed without a reply.
    let mut stalled = raw_session(server.addr());
    stalled.write_all(&500u32.to_be_bytes()).unwrap();
    stalled.write_all(&[WIRE_VERSION, 0x02]).unwrap();
    assert!(
        read_frame_traced(&mut stalled).is_err(),
        "mid-frame stall survived"
    );
    server.shutdown();
}

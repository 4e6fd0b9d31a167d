//! End-to-end trace propagation acceptance: one request's trace id must
//! be recoverable from every surface the request touched —
//!
//! 1. the client itself ([`Client::last_trace_id`]),
//! 2. the remote `EXPLAIN ANALYZE` text (`trace:` line),
//! 3. the slow-query log riding the Prometheus exposition (`trace=`),
//! 4. the flight recorder dumped over the `Events` frame (`\events`),
//!    in sequence order.
//!
//! Plus the protocol edges: responses echo the request's trace id (the
//! client validates the echo on every call), error frames land in the
//! recorder under the same trace, and mixed-version peers are refused
//! at `Hello`.

use hrdm_core::prelude::*;
use hrdm_net::{Client, Frame, NetError, Server, ServerConfig, ServerHandle, PROTO_VERSION};
use hrdm_storage::ConcurrentDatabase;
use std::sync::Arc;
use std::time::Duration;

/// A server over a small in-memory relation, recording every request in
/// the slow-query log (threshold zero) so one query is enough to light
/// up all four surfaces.
fn traced_server() -> ServerHandle {
    let db = Arc::new(ConcurrentDatabase::new());
    let era = Lifespan::interval(0, 1000);
    let scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .build()
        .unwrap();
    db.create_relation("r", scheme.clone()).unwrap();
    for k in 0..4i64 {
        let t = Tuple::builder(era.clone())
            .constant("K", k)
            .finish(&scheme)
            .unwrap();
        db.insert("r", t).unwrap();
    }
    let config = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", db, config)
        .unwrap()
        .spawn()
        .unwrap()
}

#[test]
fn one_trace_id_is_recoverable_from_all_four_surfaces() {
    let server = traced_server();
    let mut client = Client::connect_as(server.addr(), "trace-acceptance").unwrap();

    // Surface 1: the client holds the id it minted for this request.
    let text = client.explain("EXPLAIN ANALYZE r").unwrap();
    let trace = client.last_trace_id();
    assert_ne!(trace, 0, "observability is on: requests mint trace ids");
    let hex = hrdm_obs::trace::render(trace);

    // Surface 2: the server-side EXPLAIN ANALYZE text reports the same
    // id — the worker installed the header's trace before planning.
    assert!(text.contains(&format!("trace: {hex}")), "{text}");

    // Surface 3: the slow-query log (threshold zero admitted the
    // request) renders the id in its exposition comment line.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains(&format!("trace={hex}")), "{metrics}");

    // Surface 4: the flight recorder captured the slowlog admission as
    // a `slow-query` event stamped with the same id, and the `\events`
    // dump arrives in sequence order.
    let events = client.events(0).unwrap();
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "events must arrive in sequence order: {seqs:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == "slow-query" && e.trace == trace),
        "no slow-query event carries trace {hex}: {events:#?}"
    );

    // The session's lifecycle is in the ring too (untraced: they happen
    // outside any request).
    assert!(events.iter().any(|e| e.kind == "session-open"));

    server.shutdown();
}

#[test]
fn error_frames_record_the_request_trace() {
    let server = traced_server();
    let mut client = Client::connect_as(server.addr(), "trace-errors").unwrap();

    let err = client.query("THIS IS NOT A QUERY ((").unwrap_err();
    assert!(matches!(err, NetError::Remote(_)), "{err}");
    let trace = client.last_trace_id();
    assert_ne!(trace, 0);

    // The error event in the recorder carries the failing request's id,
    // so `\events` alone is enough to tie a client-reported failure to
    // the server-side context around it.
    let events = client.events(0).unwrap();
    assert!(
        events.iter().any(|e| e.kind == "error" && e.trace == trace),
        "no error event carries trace {}: {events:#?}",
        hrdm_obs::trace::render(trace)
    );

    server.shutdown();
}

#[test]
fn each_request_mints_a_fresh_trace() {
    let server = traced_server();
    let mut client = Client::connect_as(server.addr(), "trace-fresh").unwrap();

    client.query("r").unwrap();
    let first = client.last_trace_id();
    client.query("r").unwrap();
    let second = client.last_trace_id();
    assert_ne!(first, 0);
    assert_ne!(second, 0);
    assert_ne!(first, second, "trace ids are per-request, not per-session");

    server.shutdown();
}

#[test]
fn mixed_proto_version_is_refused_at_hello() {
    let server = traced_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    hrdm_net::write_frame_traced(
        &mut stream,
        1,
        0,
        &Frame::Hello {
            version: PROTO_VERSION - 1,
            client: "old-peer".to_string(),
        },
    )
    .unwrap();
    let (_, _, frame) = hrdm_net::read_frame_traced(&mut stream).unwrap();
    match frame {
        Frame::Error { error } => {
            let msg = error.to_string();
            assert!(msg.contains("protocol version mismatch"), "{msg}");
            assert!(msg.contains(&PROTO_VERSION.to_string()), "{msg}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The session is closed: the next read hits EOF.
    assert!(hrdm_net::read_frame_traced(&mut stream).is_err());

    server.shutdown();
}

#[test]
fn old_wire_version_frames_are_refused() {
    let server = traced_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    // A header-sized body whose version byte says 1: the version check
    // fails before the kind is even looked at, so the exact payload
    // does not matter.
    let mut body = vec![0u8; 26];
    body[0] = 1; // the retired wire version
    body[1] = 0x01; // Hello
    let mut raw = (body.len() as u32).to_be_bytes().to_vec();
    raw.extend_from_slice(&body);
    std::io::Write::write_all(&mut stream, &raw).unwrap();

    let (_, _, frame) = hrdm_net::read_frame_traced(&mut stream).unwrap();
    match frame {
        Frame::Error { error } => {
            assert!(error.to_string().contains("wire version"), "{error}");
        }
        other => panic!("expected a wire-version refusal, got {other:?}"),
    }
    assert!(hrdm_net::read_frame_traced(&mut stream).is_err());

    server.shutdown();
}

//! The traced replay's per-request paths.
//!
//! Each function walks one request through the same public functions the
//! server and a client call, in the order `hrdm-net`'s session loop calls
//! them, with a span around every call into a layer. Frames cross a real
//! loopback socket pair (both ends on this thread), so the `net` spans
//! hold the framing *and* the socket system calls; what a single thread
//! cannot show is the wake-up of a second one, which the probe
//! `net.wire_overhead_us` measures instead. Values are also freed inside
//! the span of the layer that made them, so deallocation is not billed to
//! the harness.

use crate::ops::ReadOp;
use crate::spans::Recorder;
use crate::wire::{other, Reply};
use hrdm_core::Tuple;
use hrdm_net::{read_frame_traced, write_frame_traced, Frame, WriteOp};
use hrdm_query::{
    build_executor, materialization_window, optimize, parse_query, plan, run_query_on_snapshot,
    ExecOptions, Query, QueryResult, QueryStream,
};
use hrdm_storage::{ConcurrentDatabase, PagedDatabase, WalRecord};
use std::io;
use std::net::{TcpListener, TcpStream};

/// A connected loopback socket pair, both ends held by the replay thread.
/// One frame is in flight at a time, so a write never outgrows the socket
/// buffer before the matching read drains it.
pub struct Loopback {
    client: TcpStream,
    server: TcpStream,
}

impl Loopback {
    pub fn new() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        Ok(Loopback { client, server })
    }
}

/// Sends `frame` client to server and returns what the server decoded.
fn request(rec: &mut Recorder, lo: &mut Loopback, frame: &Frame) -> io::Result<Frame> {
    rec.span("net.write_request", |_| {
        write_frame_traced(&mut lo.client, 1, 0, frame)
    })?;
    let (_, _, got) = rec
        .span("net.read_request", |_| read_frame_traced(&mut lo.server))
        .map_err(other)?;
    Ok(got)
}

/// Sends `frame` server to client and returns what the client decoded.
fn respond(rec: &mut Recorder, lo: &mut Loopback, frame: &Frame) -> io::Result<Frame> {
    rec.span("net.write_reply", |_| {
        write_frame_traced(&mut lo.server, 1, 0, frame)
    })?;
    let (_, _, got) = rec
        .span("net.read_reply", |_| read_frame_traced(&mut lo.client))
        .map_err(other)?;
    Ok(got)
}

/// One read, as `serve_query` runs it: snapshot, parse, optimize, plan,
/// open, a header frame, one `RowChunk` per 256-row batch, `Done`.
pub fn read(
    rec: &mut Recorder,
    lo: &mut Loopback,
    db: &ConcurrentDatabase,
    op: &ReadOp,
) -> io::Result<bool> {
    rec.next_request();
    rec.span("harness.request", |rec| {
        let query = Frame::Query {
            text: op.text.clone(),
        };
        let Frame::Query { text } = request(rec, lo, &query)? else {
            return Err(io::Error::other("request frame did not round-trip"));
        };
        let snap = rec.span("snapshot.take", |_| db.snapshot());
        let parsed = rec
            .span("query.parse", |_| parse_query(&text))
            .map_err(other)?;
        let opts = ExecOptions {
            batch_rows: 256,
            max_rows: Some(1_000_000),
            ..ExecOptions::default()
        };
        let reply = match parsed {
            Query::Relation(expr) => {
                let (optimized, _) = rec.span("query.optimize", |_| optimize(&expr));
                let physical = rec.span("query.plan", |_| plan(&optimized, &*snap));
                let mut stream = rec
                    .span("exec.open", |_| {
                        QueryStream::new(build_executor(&physical, &*snap, &opts), &opts)
                    })
                    .map_err(other)?;
                let header = Frame::RelationHeader {
                    scheme: stream.scheme().clone(),
                    rows: 0,
                };
                respond(rec, lo, &header)?;
                let mut reply = Reply::default();
                while let Some(batch) = rec
                    .span("exec.next_batch", |_| stream.next_batch())
                    .map_err(other)?
                {
                    let chunk = Frame::RowChunk {
                        tuples: batch.into_rows(),
                    };
                    // The client keeps the first tuple and frees the rest,
                    // as the benchmark's own wire client does.
                    let first: Option<Tuple> = rec.span("net.chunk", |rec| {
                        let got = respond(rec, lo, &chunk)?;
                        drop(chunk);
                        match got {
                            Frame::RowChunk { mut tuples } => {
                                reply.rows += tuples.len() as u64;
                                Ok::<_, io::Error>(
                                    (!tuples.is_empty()).then(|| tuples.swap_remove(0)),
                                )
                            }
                            _ => Err(io::Error::other("chunk frame did not round-trip")),
                        }
                    })?;
                    if reply.first.is_none() {
                        reply.first = first;
                    }
                }
                respond(rec, lo, &Frame::Done { rows: reply.rows })?;
                rec.span("exec.close", |_| {
                    drop(stream);
                    drop(physical);
                });
                reply
            }
            // Lifespan- and aggregate-sorted queries have no physical
            // plan: the pipeline evaluates them directly.
            _ => {
                let result = rec
                    .span("exec.evaluate", |_| run_query_on_snapshot(&text, &*snap))
                    .map_err(other)?;
                let frame = match result {
                    QueryResult::Lifespan(lifespan) => Frame::LifespanResult { lifespan },
                    QueryResult::Function(value) => Frame::FunctionResult { value },
                    QueryResult::Relation(_) => {
                        return Err(io::Error::other("a relation-sorted query has a plan"))
                    }
                };
                match respond(rec, lo, &frame)? {
                    Frame::LifespanResult { lifespan } => Reply {
                        lifespan: Some(lifespan),
                        ..Reply::default()
                    },
                    Frame::FunctionResult { value } => Reply {
                        function: Some(value),
                        ..Reply::default()
                    },
                    _ => return Err(io::Error::other("result frame did not round-trip")),
                }
            }
        };
        rec.span("snapshot.release", |_| drop(snap));
        Ok(op.expect.holds(&reply))
    })
}

/// One durable insert, as the server's `Execute` path runs it.
pub fn write(
    rec: &mut Recorder,
    lo: &mut Loopback,
    db: &ConcurrentDatabase,
    tuple: Tuple,
) -> io::Result<()> {
    rec.next_request();
    rec.span("harness.request", |rec| {
        let execute = Frame::Execute {
            op: WriteOp::Insert {
                relation: "hist".to_string(),
                tuple,
            },
        };
        let Frame::Execute {
            op: WriteOp::Insert { relation, tuple },
        } = request(rec, lo, &execute)?
        else {
            return Err(io::Error::other("insert frame did not round-trip"));
        };
        rec.span("commit.write", |_| {
            db.write(WalRecord::Insert { relation, tuple })
        })
        .map_err(other)?;
        respond(rec, lo, &Frame::Ack { rows: 1 })?;
        Ok(())
    })
}

/// One window through the out-of-core path, as `run_query_on_paged` runs
/// it, with the window materialization and the query as separate spans.
/// The workload is in process, so no frame is involved.
pub fn paged(rec: &mut Recorder, db: &PagedDatabase, op: &ReadOp) -> io::Result<bool> {
    rec.next_request();
    rec.span("harness.request", |rec| {
        let parsed = rec
            .span("query.parse", |_| parse_query(&op.text))
            .map_err(other)?;
        let Query::Relation(expr) = parsed else {
            return Err(io::Error::other(
                "paged replay expects relation-sorted queries",
            ));
        };
        let (optimized, _) = rec.span("query.optimize", |_| optimize(&expr));
        let window = rec.span("query.window", |_| materialization_window(&optimized));
        let snap = rec
            .span("paged.window_snapshot", |_| {
                db.window_snapshot(window.as_ref())
            })
            .map_err(other)?;
        let opts = ExecOptions::default();
        let physical = rec.span("query.plan", |_| plan(&optimized, &snap));
        let mut stream = rec
            .span("exec.open", |_| {
                QueryStream::new(build_executor(&physical, &snap, &opts), &opts)
            })
            .map_err(other)?;
        let mut reply = Reply::default();
        while let Some(batch) = rec
            .span("exec.next_batch", |_| stream.next_batch())
            .map_err(other)?
        {
            reply.rows += batch.len() as u64;
        }
        rec.span("exec.close", |_| {
            drop(stream);
            drop(physical);
        });
        rec.span("paged.release", |_| drop(snap));
        Ok(op.expect.holds(&reply))
    })
}

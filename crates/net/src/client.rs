//! A synchronous client for the `hrdmd` wire protocol.
//!
//! The client shares the frame codec with the server by construction
//! (both sides call [`crate::frame`]), so a protocol change cannot leave
//! them speaking different dialects. One [`Client`] owns one TCP
//! connection; requests run one at a time and responses (including
//! streamed relation results) are collected synchronously. A
//! [`Canceller`] — cloned off the same socket — can abort the in-flight
//! request from another thread.

use crate::frame::{
    assemble_relation, read_frame_traced, write_frame_traced, Frame, FrameError, ServerStats,
    WireError, WireEvent, WriteOp, PROTO_VERSION,
};
use hrdm_core::{Relation, Scheme, Tuple};
use hrdm_obs::TraceContext;
use hrdm_query::QueryResult;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, or a dropped peer).
    Io(io::Error),
    /// The server's bytes violated the protocol.
    Protocol(String),
    /// The server answered with a structured error frame.
    Remote(WireError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "connection error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => NetError::Io(e),
            FrameError::Protocol(m) => NetError::Protocol(m),
        }
    }
}

/// A connected session with an `hrdmd` server.
pub struct Client {
    stream: TcpStream,
    /// Serializes frame *writes* between this client and its
    /// [`Canceller`]s: `write_all` on a TCP stream may split into several
    /// `write` calls when the send buffer fills, so two threads writing
    /// unsynchronized could interleave bytes mid-frame and corrupt the
    /// stream.
    write_lock: Arc<Mutex<()>>,
    server: String,
    next_req: u64,
    /// The client name, used as the origin when minting trace ids.
    origin: String,
    /// The trace id stamped on the most recent request (0 before the
    /// first one, or when observability is disabled).
    last_trace: u128,
}

impl Client {
    /// Connects and performs the `Hello`/`HelloAck` negotiation. A server
    /// speaking a different protocol version answers with an error frame,
    /// surfaced here as [`NetError::Remote`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        Client::connect_as(addr, "hrdm-client")
    }

    /// [`Client::connect`] with an explicit client name (diagnostics).
    pub fn connect_as(addr: impl ToSocketAddrs, name: &str) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            write_lock: Arc::new(Mutex::new(())),
            server: String::new(),
            next_req: 1,
            origin: name.to_string(),
            last_trace: 0,
        };
        let req = client.send(&Frame::Hello {
            version: PROTO_VERSION,
            client: name.to_string(),
        })?;
        match client.recv(req)? {
            Frame::HelloAck { server, .. } => {
                client.server = server;
                Ok(client)
            }
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The server's self-reported name from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// The request id the *next* request will use — what a
    /// [`Canceller`] on another thread needs to abort it.
    pub fn next_request_id(&self) -> u64 {
        self.next_req
    }

    /// The trace id this client stamped on its most recent request
    /// (0 before the first request, or under `HRDM_OBS_OFF`). The
    /// server installs the same id while serving, so it reappears in
    /// `EXPLAIN ANALYZE` output, slowlog lines, flight-recorder events,
    /// and error frames — this accessor is how a caller joins those
    /// surfaces back to its own request.
    pub fn last_trace_id(&self) -> u128 {
        self.last_trace
    }

    /// A cancel handle sharing this connection's socket. Its
    /// [`Canceller::cancel`] may be called from another thread while a
    /// request is in flight here.
    pub fn canceller(&self) -> Result<Canceller, NetError> {
        Ok(Canceller {
            stream: self.stream.try_clone()?,
            write_lock: Arc::clone(&self.write_lock),
        })
    }

    /// Bounds how long a single response read may block. `None` (the
    /// default) blocks indefinitely.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Runs query text on the server and collects the full result —
    /// streamed relation chunks are validated and reassembled locally.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, NetError> {
        let req = self.send(&Frame::Query {
            text: text.to_string(),
        })?;
        match self.recv(req)? {
            Frame::RelationHeader { scheme, rows } => self.collect_relation(req, scheme, rows),
            Frame::LifespanResult { lifespan } => Ok(QueryResult::Lifespan(lifespan)),
            Frame::FunctionResult { value } => Ok(QueryResult::Function(value)),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("a result frame", &other)),
        }
    }

    fn collect_relation(
        &mut self,
        req: u64,
        scheme: Scheme,
        rows: u64,
    ) -> Result<QueryResult, NetError> {
        let mut tuples: Vec<Tuple> = Vec::with_capacity((rows as usize).min(4096));
        loop {
            match self.recv(req)? {
                Frame::RowChunk { tuples: chunk } => tuples.extend(chunk),
                Frame::Done { rows: done_rows } => {
                    if done_rows != tuples.len() as u64 {
                        return Err(NetError::Protocol(format!(
                            "server announced {done_rows} rows but streamed {}",
                            tuples.len()
                        )));
                    }
                    let r: Relation =
                        assemble_relation(scheme, tuples).map_err(NetError::Remote)?;
                    return Ok(QueryResult::Relation(r));
                }
                Frame::Error { error } => return Err(NetError::Remote(error)),
                other => return Err(unexpected("RowChunk/Done", &other)),
            }
        }
    }

    /// EXPLAIN over the wire: the server's rewrite trace + physical plan
    /// (access paths, partition pruning counts) for `text`.
    pub fn explain(&mut self, text: &str) -> Result<String, NetError> {
        let req = self.send(&Frame::Prepare {
            text: text.to_string(),
        })?;
        match self.recv(req)? {
            Frame::PlanText { text } => Ok(text),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("PlanText", &other)),
        }
    }

    /// Runs a write operation through the server's group-commit queue.
    /// Returns the affected row count from the `Ack`.
    pub fn execute(&mut self, op: WriteOp) -> Result<u64, NetError> {
        let req = self.send(&Frame::Execute { op })?;
        match self.recv(req)? {
            Frame::Ack { rows } => Ok(rows),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Creates a relation on the server.
    pub fn create_relation(&mut self, name: &str, scheme: Scheme) -> Result<(), NetError> {
        self.execute(WriteOp::CreateRelation {
            name: name.to_string(),
            scheme,
        })
        .map(|_| ())
    }

    /// Inserts one tuple on the server.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<(), NetError> {
        self.execute(WriteOp::Insert {
            relation: relation.to_string(),
            tuple,
        })
        .map(|_| ())
    }

    /// Materializes `query`'s result under `name` server-side (the wire
    /// form of the shell's `name := query`). Returns the stored row count.
    pub fn materialize(&mut self, name: &str, query: &str) -> Result<u64, NetError> {
        self.execute(WriteOp::Materialize {
            name: name.to_string(),
            query: query.to_string(),
        })
    }

    /// Asks the server to checkpoint (fold its WAL into fresh heap files).
    pub fn checkpoint(&mut self) -> Result<(), NetError> {
        let req = self.send(&Frame::Checkpoint)?;
        match self.recv(req)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        let req = self.send(&Frame::Stats)?;
        match self.recv(req)? {
            Frame::StatsResult { stats } => Ok(stats),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("StatsResult", &other)),
        }
    }

    /// Fetches the server's metrics registry as a Prometheus text
    /// exposition document (server families, engine-wide families, and
    /// the slow-query log as `# slowlog:` comment lines).
    pub fn metrics(&mut self) -> Result<String, NetError> {
        let req = self.send(&Frame::Metrics)?;
        match self.recv(req)? {
            Frame::MetricsResult { text } => Ok(text),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("MetricsResult", &other)),
        }
    }

    /// Fetches the newest `limit` flight-recorder events from the
    /// server (0 = everything the ring holds), oldest first.
    pub fn events(&mut self, limit: u64) -> Result<Vec<WireEvent>, NetError> {
        let req = self.send(&Frame::Events { limit })?;
        match self.recv(req)? {
            Frame::EventsResult { events } => Ok(events),
            Frame::Error { error } => Err(NetError::Remote(error)),
            other => Err(unexpected("EventsResult", &other)),
        }
    }

    /// Mints a fresh trace id for the request, remembers it as
    /// [`Client::last_trace_id`], and stamps it into the frame header.
    fn send(&mut self, frame: &Frame) -> Result<u64, NetError> {
        let req = self.next_req;
        self.next_req += 1;
        let trace = TraceContext::mint(&self.origin);
        self.last_trace = trace.id;
        let _guard = self.write_lock.lock().expect("write lock");
        write_frame_traced(&mut self.stream, req, trace.id, frame)?;
        Ok(req)
    }

    /// Reads the next frame for `req`. A frame carrying a different
    /// request id is a protocol violation — this client runs one request
    /// at a time, so nothing else may be on the wire — except request id
    /// 0, which the server uses for **connection-scoped** errors (e.g. a
    /// connection-limit refusal sent before any request was read). The
    /// response's trace id must echo the one this client minted (or be
    /// 0, from surfaces with no trace in scope).
    fn recv(&mut self, req: u64) -> Result<Frame, NetError> {
        let (got_req, got_trace, frame) = read_frame_traced(&mut self.stream)?;
        if got_trace != 0 && got_trace != self.last_trace {
            return Err(NetError::Protocol(format!(
                "response trace {got_trace:032x} does not echo request trace {:032x}",
                self.last_trace
            )));
        }
        if let (0, Frame::Error { error }) = (got_req, &frame) {
            return Err(NetError::Remote(error.clone()));
        }
        if got_req != req {
            return Err(NetError::Protocol(format!(
                "response for request {got_req} while waiting on {req}"
            )));
        }
        Ok(frame)
    }
}

/// Aborts an in-flight request on a [`Client`]'s connection from another
/// thread. Cancel writes take the client's write lock, so a cancel can
/// never splice its bytes into the middle of a request frame the client
/// thread is still flushing.
pub struct Canceller {
    stream: TcpStream,
    write_lock: Arc<Mutex<()>>,
}

impl Canceller {
    /// Sends `Cancel` for `request_id`. Best-effort: a request that
    /// already completed ignores it.
    pub fn cancel(&mut self, request_id: u64) -> Result<(), NetError> {
        let _guard = self.write_lock.lock().expect("write lock");
        write_frame_traced(&mut self.stream, request_id, 0, &Frame::Cancel)?;
        Ok(())
    }
}

fn unexpected(wanted: &str, got: &Frame) -> NetError {
    NetError::Protocol(format!(
        "expected {wanted}, got frame kind {:#x}",
        got.kind()
    ))
}

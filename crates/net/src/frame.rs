//! The HRDM wire protocol: length-prefixed, versioned binary frames.
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────────┬─────────┬──────────┬───────────────┬────────────────┬───────────┐
//! │ len: u32 BE  │ ver: u8 │ kind: u8 │ req id: u64 BE│ trace: u128 BE │ payload … │
//! └──────────────┴─────────┴──────────┴───────────────┴────────────────┴───────────┘
//!        4             1         1            8               16          len − 26
//! ```
//!
//! `len` counts everything after itself (version byte through payload).
//! The version byte is the *frame format* version ([`WIRE_VERSION`]); the
//! application-level protocol version is negotiated by the
//! `Hello`/`HelloAck` exchange ([`PROTO_VERSION`]). Payloads use the same
//! varint/tagged encoding as the storage layer ([`hrdm_storage::Encoder`]) —
//! schemes, tuples, lifespans, and temporal values go over the wire in
//! exactly their on-disk form.
//!
//! Every decode error is a [`FrameError::Protocol`] value, never a panic:
//! truncated frames, oversized `len` declarations, unknown version bytes,
//! unknown kind tags, and trailing garbage inside a frame are all rejected
//! with a message naming what was wrong.
//!
//! The request id ties responses (and streamed result chunks) to the
//! request that caused them; a `Cancel` frame's request id names the
//! request to abort.
//!
//! The trace id ([`hrdm_obs::trace`]) is minted by the request's
//! originator and echoed on every response frame, so `EXPLAIN ANALYZE`
//! output, slowlog lines, error frames, and flight-recorder events all
//! report the id the client already holds. Zero means "no trace" (the
//! observability kill switch mints zero ids).

use hrdm_core::{HrdmError, Relation, Scheme, TemporalValue, Tuple};
use hrdm_storage::{CodecError, DbError, Decoder, Encoder};
use hrdm_time::Lifespan;
use std::fmt;
use std::io::{self, Read, Write};

/// Version of the frame *format* (header + payload encodings). Bumped only
/// when the layout above changes incompatibly.
///
/// v2: the body header gained the 16-byte trace id between the request
/// id and the payload. A v1 peer's first frame fails the version check
/// immediately, so mixed-version pairs refuse each other at `Hello`.
pub const WIRE_VERSION: u8 = 2;

/// Version of the application protocol (message set + semantics),
/// negotiated in `Hello`/`HelloAck`. A server refuses clients whose hello
/// carries a different protocol version.
///
/// v2: `Stats` gained `rows_streamed`/`batches_streamed` ahead of the
/// relations list, and `RelationHeader.rows` stopped being authoritative
/// for streamed results (`Done` carries the row count).
///
/// v3: every frame header carries a client-minted trace id (wire format
/// v2); `Stats` gained the rolling 60s fields (`qps_milli_60s`,
/// `p50_60s_ns`, `p99_60s_ns`, `pool_hit_permille_60s`, `uptime_secs`)
/// and the `top_streamed` relation list; new `Events`/`EventsResult`
/// frames dump the server's flight recorder.
pub const PROTO_VERSION: u32 = 3;

/// Hard ceiling on one frame's body (version byte through payload).
/// Declaring a larger `len` is a protocol error — a garbage or hostile
/// header cannot make the peer allocate unbounded memory.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of header before the payload: version, kind, request id,
/// trace id.
const BODY_HEADER: usize = 1 + 1 + 8 + 16;

/// Ceiling on events decoded from one `EventsResult` frame (the
/// server's ring holds [`hrdm_obs::event::RING_CAPACITY`] ≤ this).
const MAX_WIRE_EVENTS: usize = 4096;

/// A structured error carried over the wire. The model/storage error
/// *variant* survives the network boundary (clients can match on it), the
/// human-readable rendering rides along.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The peer violated the framing or message rules.
    Protocol(String),
    /// The query text did not parse.
    Parse(String),
    /// A model-level [`HrdmError`], by variant name.
    Model {
        /// The `HrdmError` variant, e.g. `UnknownRelation`.
        variant: String,
        /// The error's `Display` rendering.
        message: String,
    },
    /// A storage-level [`DbError`], by variant name.
    Db {
        /// The `DbError` variant, e.g. `Mode`.
        variant: String,
        /// The error's `Display` rendering.
        message: String,
    },
    /// The request was cancelled by a `Cancel` frame.
    Cancelled,
    /// A server-side resource cap (row / byte limit) stopped the request.
    Limit(String),
    /// The server cannot take the connection or request right now
    /// (connection limit reached, shutting down).
    Unavailable(String),
    /// The request is well-formed but the server does not serve it (e.g.
    /// materializing a query whose result is not a relation).
    Unsupported(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::Parse(m) => write!(f, "parse error: {m}"),
            WireError::Model { message, .. } => write!(f, "error: {message}"),
            WireError::Db { message, .. } => write!(f, "error: {message}"),
            WireError::Cancelled => write!(f, "request cancelled"),
            WireError::Limit(m) => write!(f, "limit exceeded: {m}"),
            WireError::Unavailable(m) => write!(f, "server unavailable: {m}"),
            WireError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The variant name of an [`HrdmError`], as carried in
/// [`WireError::Model`].
pub fn hrdm_error_variant(e: &HrdmError) -> &'static str {
    match e {
        HrdmError::EmptyScheme => "EmptyScheme",
        HrdmError::DuplicateAttribute(_) => "DuplicateAttribute",
        HrdmError::KeyNotInScheme(_) => "KeyNotInScheme",
        HrdmError::EmptyKey => "EmptyKey",
        HrdmError::KeyLifespanCovenant(_) => "KeyLifespanCovenant",
        HrdmError::KeyNotConstant(_) => "KeyNotConstant",
        HrdmError::UnknownAttribute(_) => "UnknownAttribute",
        HrdmError::UnknownRelation(_) => "UnknownRelation",
        HrdmError::DuplicateRelation(_) => "DuplicateRelation",
        HrdmError::DomainMismatch { .. } => "DomainMismatch",
        HrdmError::ValueOutsideLifespan { .. } => "ValueOutsideLifespan",
        HrdmError::NotConstant(_) => "NotConstant",
        HrdmError::IncomparableValues { .. } => "IncomparableValues",
        HrdmError::KeyViolation { .. } => "KeyViolation",
        HrdmError::MissingKeyValue(_) => "MissingKeyValue",
        HrdmError::NotUnionCompatible => "NotUnionCompatible",
        HrdmError::NotMergeCompatible => "NotMergeCompatible",
        HrdmError::AttributesNotDisjoint(_) => "AttributesNotDisjoint",
        HrdmError::NotTimeValued(_) => "NotTimeValued",
        HrdmError::CommonAttributeDomainMismatch(_) => "CommonAttributeDomainMismatch",
        HrdmError::NanFloat => "NanFloat",
        HrdmError::ContradictoryValues { .. } => "ContradictoryValues",
        HrdmError::ConflictingSegments => "ConflictingSegments",
        HrdmError::MissingAttributeValue(_) => "MissingAttributeValue",
    }
}

/// The variant name of a [`DbError`], as carried in [`WireError::Db`].
/// `DbError::Model` is unwrapped into [`WireError::Model`] by the `From`
/// impl instead, so clients see the model variant, not the wrapper.
pub fn db_error_variant(e: &DbError) -> &'static str {
    match e {
        DbError::Io(_) => "Io",
        DbError::Codec(_) => "Codec",
        DbError::Model(_) => "Model",
        DbError::BadFile(_) => "BadFile",
        DbError::Mode(_) => "Mode",
        DbError::SchemeMismatch { .. } => "SchemeMismatch",
    }
}

impl From<&HrdmError> for WireError {
    fn from(e: &HrdmError) -> Self {
        WireError::Model {
            variant: hrdm_error_variant(e).to_string(),
            message: e.to_string(),
        }
    }
}

impl From<&DbError> for WireError {
    fn from(e: &DbError) -> Self {
        match e {
            DbError::Model(m) => WireError::from(m),
            other => WireError::Db {
                variant: db_error_variant(other).to_string(),
                message: other.to_string(),
            },
        }
    }
}

/// A write operation carried by an `Execute` frame. All three funnel into
/// the server's group-commit queue, so concurrent clients' writes form
/// batches exactly like concurrent in-process writers.
#[derive(Clone, PartialEq, Debug)]
pub enum WriteOp {
    /// Create an empty relation under `name`.
    CreateRelation {
        /// The new relation's name.
        name: String,
        /// Its scheme.
        scheme: Scheme,
    },
    /// Insert one tuple into `relation`.
    Insert {
        /// Target relation.
        relation: String,
        /// The tuple.
        tuple: Tuple,
    },
    /// Evaluate `query` server-side (against the current snapshot) and
    /// materialize the result relation under `name`, creating or replacing
    /// it — the wire form of the shell's `name := query`.
    Materialize {
        /// Target relation name.
        name: String,
        /// Query text whose relation-sorted result is stored.
        query: String,
    },
}

/// Server-side observability counters, served by a `Stats` request.
///
/// `relations` carries `(name, tuple count)` pairs of the snapshot the
/// stats were taken against, so a remote shell can list relations without
/// a dedicated catalog message.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently holding a session slot.
    pub connections_active: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Requests served (all kinds, successful or not).
    pub requests: u64,
    /// Requests aborted by `Cancel`.
    pub cancelled: u64,
    /// Total nanoseconds spent planning queries (parse + optimize + plan).
    pub plan_ns: u64,
    /// Total nanoseconds spent executing planned queries.
    pub exec_ns: u64,
    /// Group-commit batches acknowledged (see
    /// [`hrdm_storage::CommitStats`]).
    pub commit_batches: u64,
    /// Group-committed operations acknowledged.
    pub commit_ops: u64,
    /// Largest batch acknowledged so far.
    pub commit_max_batch: u64,
    /// Size of the most recent batch.
    pub commit_last_batch: u64,
    /// Version of the snapshot the stats were read against.
    pub snapshot_version: u64,
    /// Request-payload bytes read from clients.
    pub bytes_in: u64,
    /// Response bytes written to clients.
    pub bytes_out: u64,
    /// Median end-to-end request latency (ns, log2-bucket estimate; 0
    /// until a request has been served).
    pub request_p50_ns: u64,
    /// 95th-percentile end-to-end request latency (ns, estimate).
    pub request_p95_ns: u64,
    /// 99th-percentile end-to-end request latency (ns, estimate).
    pub request_p99_ns: u64,
    /// Result rows streamed to clients by the pull-based executor.
    pub rows_streamed: u64,
    /// Result batches streamed to clients by the pull-based executor.
    pub batches_streamed: u64,
    /// Rolling 60s request rate, in milli-requests per second (windowed
    /// metrics; 0 when observability is disabled).
    pub qps_milli_60s: u64,
    /// Rolling 60s median request latency (ns, log2-bucket estimate).
    pub p50_60s_ns: u64,
    /// Rolling 60s 99th-percentile request latency (ns, estimate).
    pub p99_60s_ns: u64,
    /// Rolling 60s buffer-pool hit ratio in permille (‰); `u64::MAX`
    /// when the window saw no pool traffic.
    pub pool_hit_permille_60s: u64,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Top relations by rows streamed out of scans, descending.
    pub top_streamed: Vec<(String, u64)>,
    /// `(name, tuple count)` for every relation in that snapshot.
    pub relations: Vec<(String, u64)>,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "connections: {} accepted, {} active",
            self.connections_accepted, self.connections_active
        )?;
        writeln!(f, "frames: {} in, {} out", self.frames_in, self.frames_out)?;
        writeln!(f, "bytes: {} in, {} out", self.bytes_in, self.bytes_out)?;
        writeln!(
            f,
            "requests: {} served, {} cancelled; planning {:.3} ms, execution {:.3} ms",
            self.requests,
            self.cancelled,
            self.plan_ns as f64 / 1e6,
            self.exec_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            self.request_p50_ns as f64 / 1e6,
            self.request_p95_ns as f64 / 1e6,
            self.request_p99_ns as f64 / 1e6
        )?;
        let mean = if self.commit_batches == 0 {
            0.0
        } else {
            self.commit_ops as f64 / self.commit_batches as f64
        };
        writeln!(
            f,
            "group commit: {} batch(es), {} op(s), mean batch {:.2}, max batch {}, last batch {}",
            self.commit_batches,
            self.commit_ops,
            mean,
            self.commit_max_batch,
            self.commit_last_batch
        )?;
        writeln!(
            f,
            "streamed: {} row(s) in {} batch(es)",
            self.rows_streamed, self.batches_streamed
        )?;
        writeln!(
            f,
            "rolling 60s: {:.3} req/s, p50 {:.3} ms, p99 {:.3} ms, pool hit {}",
            self.qps_milli_60s as f64 / 1e3,
            self.p50_60s_ns as f64 / 1e6,
            self.p99_60s_ns as f64 / 1e6,
            if self.pool_hit_permille_60s == u64::MAX {
                "-".to_string()
            } else {
                format!("{:.1}%", self.pool_hit_permille_60s as f64 / 10.0)
            }
        )?;
        writeln!(f, "uptime: {} s", self.uptime_secs)?;
        write!(f, "snapshot: version {}", self.snapshot_version)
    }
}

/// One flight-recorder event as carried by an `EventsResult` frame
/// (the wire form of [`hrdm_obs::event::EventRecord`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireEvent {
    /// Monotonic recorder sequence number (1-based).
    pub seq: u64,
    /// Coarse wall-clock stamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The trace id current when the event was recorded (0 = none).
    pub trace: u128,
    /// The event kind's stable text name (e.g. `commit`, `slow-query`).
    pub kind: String,
    /// Free-form context.
    pub detail: String,
}

impl WireEvent {
    /// The wire form of a recorder event.
    pub fn from_record(e: &hrdm_obs::EventRecord) -> WireEvent {
        WireEvent {
            seq: e.seq,
            unix_ms: e.unix_ms,
            trace: e.trace,
            kind: e.kind.as_str().to_string(),
            detail: e.detail.clone(),
        }
    }

    /// One-line text rendering (what `\events` prints).
    pub fn render(&self) -> String {
        let trace = if self.trace == 0 {
            "-".to_string()
        } else {
            hrdm_obs::trace::render(self.trace)
        };
        format!(
            "#{:<6} t={} trace={} {} {}",
            self.seq, self.unix_ms, trace, self.kind, self.detail
        )
    }
}

/// One protocol message. Kinds `0x01–0x09` travel client → server,
/// `0x81–0x8c` travel server → client; the codec itself is direction
/// agnostic (the client and server share it by construction).
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    // -- client → server --------------------------------------------------
    /// Opens the session: protocol version + client identification.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u32,
        /// Free-form client name (diagnostics only).
        client: String,
    },
    /// Run query text; the server streams the result back.
    Query {
        /// The query text (the `hrdm-query` algebra language).
        text: String,
    },
    /// Run a write operation through the group-commit queue.
    Execute {
        /// The operation.
        op: WriteOp,
    },
    /// Plan query text without executing: returns the EXPLAIN rendering
    /// (rewrite trace + physical plan with access paths).
    Prepare {
        /// The query text.
        text: String,
    },
    /// Fold the WAL into a fresh checkpoint (attached servers only).
    Checkpoint,
    /// Request the server's [`ServerStats`].
    Stats,
    /// Abort the in-flight request whose id equals this frame's request
    /// id. Best-effort: if the request already completed, the cancel is a
    /// no-op. Request ids must not be reused within a connection — a
    /// cancel that raced past its request's completion stays recorded
    /// (bounded) and would spuriously cancel a reused id.
    Cancel,
    /// Request the server's metrics registry in Prometheus text
    /// exposition format (counters, gauges, histograms, and the
    /// slow-query log as comment lines).
    Metrics,
    /// Request the newest flight-recorder events (`limit` = 0 for
    /// everything the ring holds).
    Events {
        /// Maximum events to return (newest kept; 0 = all held).
        limit: u64,
    },

    // -- server → client --------------------------------------------------
    /// Accepts the hello: the server's protocol version + identification.
    HelloAck {
        /// The server's [`PROTO_VERSION`].
        version: u32,
        /// Free-form server name (diagnostics only).
        server: String,
    },
    /// Starts a relation-sorted result stream: the scheme, followed by
    /// [`Frame::RowChunk`]s and a [`Frame::Done`].
    RelationHeader {
        /// The result's scheme.
        scheme: Scheme,
        /// Total rows that will be streamed, when known up front. Since
        /// the server streams chunks from a live executor, this is `0`
        /// (unknown) — the authoritative count arrives in
        /// [`Frame::Done`]. Receivers must treat it as a hint only.
        rows: u64,
    },
    /// One chunk of result tuples.
    RowChunk {
        /// The tuples, in result order.
        tuples: Vec<Tuple>,
    },
    /// Ends a result stream.
    Done {
        /// Rows actually streamed — the authoritative result size (the
        /// header's count is only a hint).
        rows: u64,
    },
    /// A lifespan-sorted result.
    LifespanResult {
        /// The lifespan.
        lifespan: Lifespan,
    },
    /// A time-varying (aggregate-sorted) result.
    FunctionResult {
        /// The temporal value.
        value: TemporalValue,
    },
    /// The EXPLAIN rendering answering a [`Frame::Prepare`].
    PlanText {
        /// Rewrite trace + physical plan, as text.
        text: String,
    },
    /// Acknowledges an `Execute` / `Checkpoint`.
    Ack {
        /// Rows affected (materialized row count for `Materialize`, 1 for
        /// `Insert`, 0 otherwise).
        rows: u64,
    },
    /// The server's counters answering a [`Frame::Stats`].
    StatsResult {
        /// The counters.
        stats: ServerStats,
    },
    /// The Prometheus text exposition answering a [`Frame::Metrics`].
    MetricsResult {
        /// The rendered registry (server's own families plus the
        /// process-wide engine families), with slow-query-log comments.
        text: String,
    },
    /// A structured error terminating the request.
    Error {
        /// What went wrong.
        error: WireError,
    },
    /// The flight-recorder dump answering a [`Frame::Events`] request.
    EventsResult {
        /// The events, oldest first, in recorder sequence order.
        events: Vec<WireEvent>,
    },
}

impl Frame {
    /// The kind tag byte identifying this frame on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Query { .. } => 0x02,
            Frame::Execute { .. } => 0x03,
            Frame::Prepare { .. } => 0x04,
            Frame::Checkpoint => 0x05,
            Frame::Stats => 0x06,
            Frame::Cancel => 0x07,
            Frame::Metrics => 0x08,
            Frame::Events { .. } => 0x09,
            Frame::HelloAck { .. } => 0x81,
            Frame::RelationHeader { .. } => 0x82,
            Frame::RowChunk { .. } => 0x83,
            Frame::Done { .. } => 0x84,
            Frame::LifespanResult { .. } => 0x85,
            Frame::FunctionResult { .. } => 0x86,
            Frame::PlanText { .. } => 0x87,
            Frame::Ack { .. } => 0x88,
            Frame::StatsResult { .. } => 0x89,
            Frame::Error { .. } => 0x8a,
            Frame::MetricsResult { .. } => 0x8b,
            Frame::EventsResult { .. } => 0x8c,
        }
    }
}

/// Errors reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including clean EOF between
    /// frames, reported as `UnexpectedEof`).
    Io(io::Error),
    /// The bytes violate the protocol: truncated/oversized frames, wrong
    /// version byte, unknown kind tag, malformed payload, trailing bytes.
    Protocol(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Protocol(format!("malformed payload: {e}"))
    }
}

fn put_wire_error(e: &mut Encoder, err: &WireError) {
    match err {
        WireError::Protocol(m) => {
            e.put_u8(0);
            e.put_str(m);
        }
        WireError::Parse(m) => {
            e.put_u8(1);
            e.put_str(m);
        }
        WireError::Model { variant, message } => {
            e.put_u8(2);
            e.put_str(variant);
            e.put_str(message);
        }
        WireError::Db { variant, message } => {
            e.put_u8(3);
            e.put_str(variant);
            e.put_str(message);
        }
        WireError::Cancelled => e.put_u8(4),
        WireError::Limit(m) => {
            e.put_u8(5);
            e.put_str(m);
        }
        WireError::Unavailable(m) => {
            e.put_u8(6);
            e.put_str(m);
        }
        WireError::Unsupported(m) => {
            e.put_u8(7);
            e.put_str(m);
        }
    }
}

fn get_wire_error(d: &mut Decoder<'_>) -> Result<WireError, FrameError> {
    Ok(match d.get_u8()? {
        0 => WireError::Protocol(d.get_str()?.to_string()),
        1 => WireError::Parse(d.get_str()?.to_string()),
        2 => WireError::Model {
            variant: d.get_str()?.to_string(),
            message: d.get_str()?.to_string(),
        },
        3 => WireError::Db {
            variant: d.get_str()?.to_string(),
            message: d.get_str()?.to_string(),
        },
        4 => WireError::Cancelled,
        5 => WireError::Limit(d.get_str()?.to_string()),
        6 => WireError::Unavailable(d.get_str()?.to_string()),
        7 => WireError::Unsupported(d.get_str()?.to_string()),
        tag => return Err(FrameError::Protocol(format!("bad WireError tag {tag:#x}"))),
    })
}

fn put_write_op(e: &mut Encoder, op: &WriteOp) {
    match op {
        WriteOp::CreateRelation { name, scheme } => {
            e.put_u8(0);
            e.put_str(name);
            e.put_scheme(scheme);
        }
        WriteOp::Insert { relation, tuple } => {
            e.put_u8(1);
            e.put_str(relation);
            e.put_tuple(tuple);
        }
        WriteOp::Materialize { name, query } => {
            e.put_u8(2);
            e.put_str(name);
            e.put_str(query);
        }
    }
}

fn get_write_op(d: &mut Decoder<'_>) -> Result<WriteOp, FrameError> {
    Ok(match d.get_u8()? {
        0 => WriteOp::CreateRelation {
            name: d.get_str()?.to_string(),
            scheme: d.get_scheme()?,
        },
        1 => WriteOp::Insert {
            relation: d.get_str()?.to_string(),
            tuple: d.get_tuple()?,
        },
        2 => WriteOp::Materialize {
            name: d.get_str()?.to_string(),
            query: d.get_str()?.to_string(),
        },
        tag => return Err(FrameError::Protocol(format!("bad WriteOp tag {tag:#x}"))),
    })
}

fn put_stats(e: &mut Encoder, s: &ServerStats) {
    e.put_u64(s.connections_accepted);
    e.put_u64(s.connections_active);
    e.put_u64(s.frames_in);
    e.put_u64(s.frames_out);
    e.put_u64(s.requests);
    e.put_u64(s.cancelled);
    e.put_u64(s.plan_ns);
    e.put_u64(s.exec_ns);
    e.put_u64(s.commit_batches);
    e.put_u64(s.commit_ops);
    e.put_u64(s.commit_max_batch);
    e.put_u64(s.commit_last_batch);
    e.put_u64(s.snapshot_version);
    e.put_u64(s.bytes_in);
    e.put_u64(s.bytes_out);
    e.put_u64(s.request_p50_ns);
    e.put_u64(s.request_p95_ns);
    e.put_u64(s.request_p99_ns);
    e.put_u64(s.rows_streamed);
    e.put_u64(s.batches_streamed);
    e.put_u64(s.qps_milli_60s);
    e.put_u64(s.p50_60s_ns);
    e.put_u64(s.p99_60s_ns);
    e.put_u64(s.pool_hit_permille_60s);
    e.put_u64(s.uptime_secs);
    e.put_u64(s.top_streamed.len() as u64);
    for (name, rows) in &s.top_streamed {
        e.put_str(name);
        e.put_u64(*rows);
    }
    e.put_u64(s.relations.len() as u64);
    for (name, count) in &s.relations {
        e.put_str(name);
        e.put_u64(*count);
    }
}

fn get_stats(d: &mut Decoder<'_>) -> Result<ServerStats, FrameError> {
    let mut s = ServerStats {
        connections_accepted: d.get_u64()?,
        connections_active: d.get_u64()?,
        frames_in: d.get_u64()?,
        frames_out: d.get_u64()?,
        requests: d.get_u64()?,
        cancelled: d.get_u64()?,
        plan_ns: d.get_u64()?,
        exec_ns: d.get_u64()?,
        commit_batches: d.get_u64()?,
        commit_ops: d.get_u64()?,
        commit_max_batch: d.get_u64()?,
        commit_last_batch: d.get_u64()?,
        snapshot_version: d.get_u64()?,
        bytes_in: d.get_u64()?,
        bytes_out: d.get_u64()?,
        request_p50_ns: d.get_u64()?,
        request_p95_ns: d.get_u64()?,
        request_p99_ns: d.get_u64()?,
        rows_streamed: d.get_u64()?,
        batches_streamed: d.get_u64()?,
        qps_milli_60s: d.get_u64()?,
        p50_60s_ns: d.get_u64()?,
        p99_60s_ns: d.get_u64()?,
        pool_hit_permille_60s: d.get_u64()?,
        uptime_secs: d.get_u64()?,
        top_streamed: Vec::new(),
        relations: Vec::new(),
    };
    let top = d.get_u64()? as usize;
    for _ in 0..top.min(1 << 20) {
        let name = d.get_str()?.to_string();
        let rows = d.get_u64()?;
        s.top_streamed.push((name, rows));
    }
    let n = d.get_u64()? as usize;
    for _ in 0..n.min(1 << 20) {
        let name = d.get_str()?.to_string();
        let count = d.get_u64()?;
        s.relations.push((name, count));
    }
    Ok(s)
}

fn put_u128(e: &mut Encoder, v: u128) {
    e.put_u64((v >> 64) as u64);
    e.put_u64(v as u64);
}

fn get_u128(d: &mut Decoder<'_>) -> Result<u128, FrameError> {
    let hi = d.get_u64()?;
    let lo = d.get_u64()?;
    Ok((u128::from(hi) << 64) | u128::from(lo))
}

fn put_events(e: &mut Encoder, events: &[WireEvent]) {
    e.put_u64(events.len() as u64);
    for ev in events {
        e.put_u64(ev.seq);
        e.put_u64(ev.unix_ms);
        put_u128(e, ev.trace);
        e.put_str(&ev.kind);
        e.put_str(&ev.detail);
    }
}

fn get_events(d: &mut Decoder<'_>) -> Result<Vec<WireEvent>, FrameError> {
    let n = d.get_u64()? as usize;
    if n > MAX_WIRE_EVENTS {
        return Err(FrameError::Protocol(format!(
            "EventsResult declares {n} events, cap is {MAX_WIRE_EVENTS}"
        )));
    }
    let mut events = Vec::with_capacity(n.min(MAX_WIRE_EVENTS));
    for _ in 0..n {
        events.push(WireEvent {
            seq: d.get_u64()?,
            unix_ms: d.get_u64()?,
            trace: get_u128(d)?,
            kind: d.get_str()?.to_string(),
            detail: d.get_str()?.to_string(),
        });
    }
    Ok(events)
}

/// Encodes one frame, header included, into a single buffer. Note that
/// one `write_all` call does **not** make the write atomic against other
/// threads on the same socket (it may split into several `write`s when
/// the send buffer fills) — writers sharing a socket must serialize
/// frame writes themselves, as [`crate::Client`] and its cancellers do.
pub fn encode_frame_traced(request_id: u64, trace: u128, frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, request_id, trace, frame);
    out
}

/// Appends one encoded frame, header included, to `out` (whose existing
/// bytes are kept): the header is reserved first, the payload encoded
/// straight after it, and the length prefix patched in last, so the
/// payload is never copied. The appended bytes equal
/// [`encode_frame_traced`]'s.
pub fn encode_frame_into(out: &mut Vec<u8>, request_id: u64, trace: u128, frame: &Frame) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(WIRE_VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&trace.to_be_bytes());
    let mut e = Encoder::from_vec(std::mem::take(out));
    match frame {
        Frame::Hello { version, client } => {
            e.put_u64(u64::from(*version));
            e.put_str(client);
        }
        Frame::Query { text }
        | Frame::Prepare { text }
        | Frame::PlanText { text }
        | Frame::MetricsResult { text } => {
            e.put_str(text);
        }
        Frame::Execute { op } => put_write_op(&mut e, op),
        Frame::Checkpoint | Frame::Stats | Frame::Cancel | Frame::Metrics => {}
        Frame::Events { limit } => e.put_u64(*limit),
        Frame::EventsResult { events } => put_events(&mut e, events),
        Frame::HelloAck { version, server } => {
            e.put_u64(u64::from(*version));
            e.put_str(server);
        }
        Frame::RelationHeader { scheme, rows } => {
            e.put_scheme(scheme);
            e.put_u64(*rows);
        }
        Frame::RowChunk { tuples } => {
            e.put_u64(tuples.len() as u64);
            for t in tuples {
                e.put_tuple(t);
            }
        }
        Frame::Done { rows } | Frame::Ack { rows } => e.put_u64(*rows),
        Frame::LifespanResult { lifespan } => e.put_lifespan(lifespan),
        Frame::FunctionResult { value } => e.put_temporal_value(value),
        Frame::StatsResult { stats } => put_stats(&mut e, stats),
        Frame::Error { error } => put_wire_error(&mut e, error),
    }
    *out = e.finish();
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
}

/// Decodes one frame *body* (the `len` prefix already consumed): version
/// byte, kind tag, request id, trace id, payload. Trailing bytes are a
/// protocol error — a frame must account for exactly its declared
/// length.
pub fn decode_frame_traced(body: &[u8]) -> Result<(u64, u128, Frame), FrameError> {
    if body.len() < BODY_HEADER {
        return Err(FrameError::Protocol(format!(
            "frame body too short: {} byte(s), need at least {BODY_HEADER}",
            body.len()
        )));
    }
    let ver = body[0];
    if ver != WIRE_VERSION {
        return Err(FrameError::Protocol(format!(
            "unsupported wire version {ver} (this end speaks {WIRE_VERSION})"
        )));
    }
    let kind = body[1];
    let request_id = u64::from_be_bytes(
        body[2..10]
            .try_into()
            .map_err(|_| FrameError::Protocol("frame body header truncated".into()))?,
    );
    let trace = u128::from_be_bytes(
        body[10..26]
            .try_into()
            .map_err(|_| FrameError::Protocol("frame body header truncated".into()))?,
    );
    let mut d = Decoder::new(&body[BODY_HEADER..]);
    let frame = match kind {
        0x01 => Frame::Hello {
            version: decode_version(&mut d)?,
            client: d.get_str()?.to_string(),
        },
        0x02 => Frame::Query {
            text: d.get_str()?.to_string(),
        },
        0x03 => Frame::Execute {
            op: get_write_op(&mut d)?,
        },
        0x04 => Frame::Prepare {
            text: d.get_str()?.to_string(),
        },
        0x05 => Frame::Checkpoint,
        0x06 => Frame::Stats,
        0x07 => Frame::Cancel,
        0x08 => Frame::Metrics,
        0x09 => Frame::Events {
            limit: d.get_u64()?,
        },
        0x81 => Frame::HelloAck {
            version: decode_version(&mut d)?,
            server: d.get_str()?.to_string(),
        },
        0x82 => Frame::RelationHeader {
            scheme: d.get_scheme()?,
            rows: d.get_u64()?,
        },
        0x83 => {
            let n = d.get_u64()? as usize;
            let mut tuples = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                tuples.push(d.get_tuple()?);
            }
            Frame::RowChunk { tuples }
        }
        0x84 => Frame::Done { rows: d.get_u64()? },
        0x85 => Frame::LifespanResult {
            lifespan: d.get_lifespan()?,
        },
        0x86 => Frame::FunctionResult {
            value: d.get_temporal_value()?,
        },
        0x87 => Frame::PlanText {
            text: d.get_str()?.to_string(),
        },
        0x88 => Frame::Ack { rows: d.get_u64()? },
        0x89 => Frame::StatsResult {
            stats: get_stats(&mut d)?,
        },
        0x8a => Frame::Error {
            error: get_wire_error(&mut d)?,
        },
        0x8b => Frame::MetricsResult {
            text: d.get_str()?.to_string(),
        },
        0x8c => Frame::EventsResult {
            events: get_events(&mut d)?,
        },
        tag => return Err(FrameError::Protocol(format!("unknown frame kind {tag:#x}"))),
    };
    if !d.is_done() {
        return Err(FrameError::Protocol(format!(
            "{} trailing byte(s) after frame payload",
            d.remaining()
        )));
    }
    Ok((request_id, trace, frame))
}

fn decode_version(d: &mut Decoder<'_>) -> Result<u32, FrameError> {
    let v = d.get_u64()?;
    u32::try_from(v).map_err(|_| FrameError::Protocol(format!("protocol version {v} out of range")))
}

/// Writes one frame carrying `trace` to `w` with a single `write_all`.
pub fn write_frame_traced(
    w: &mut impl Write,
    request_id: u64,
    trace: u128,
    frame: &Frame,
) -> io::Result<()> {
    w.write_all(&encode_frame_traced(request_id, trace, frame))
}

/// Reads one frame from `r`: the length prefix, then exactly that many
/// body bytes, decoded. A declared length above `MAX_FRAME_BYTES` (or
/// below the fixed header) is rejected *before* any allocation.
pub fn read_frame_traced(r: &mut impl Read) -> Result<(u64, u128, Frame), FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    read_frame_after_len(r, u32::from_be_bytes(len_buf))
}

/// Reads the remainder of a frame whose 4-byte length prefix `len` was
/// already consumed — for readers that take the prefix themselves (e.g.
/// to tell "timed out with zero bytes consumed" from "timed out
/// mid-frame").
pub fn read_frame_after_len(r: &mut impl Read, len: u32) -> Result<(u64, u128, Frame), FrameError> {
    check_frame_len(len)?;
    let mut body = vec![0u8; len.min(MAX_FRAME_BYTES) as usize];
    r.read_exact(&mut body)?;
    decode_frame_traced(&body)
}

/// Rejects a declared frame length above [`MAX_FRAME_BYTES`] or below
/// the fixed header — the check every reader makes before it buffers or
/// allocates a frame body.
pub(crate) fn check_frame_len(len: u32) -> Result<(), FrameError> {
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Protocol(format!(
            "declared frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    if (len as usize) < BODY_HEADER {
        return Err(FrameError::Protocol(format!(
            "declared frame length {len} is shorter than the frame header"
        )));
    }
    Ok(())
}

/// Reassembles a streamed relation result: header scheme + chunked
/// tuples. Each tuple is validated against the scheme (the transport is
/// not trusted to uphold model invariants); the key constraint is *not*
/// re-imposed, because a query result need not satisfy it — the paper's
/// plain `UNION` legitimately yields tuples sharing a key (Fig. 11).
/// Linear in the result size.
pub fn assemble_relation(scheme: Scheme, tuples: Vec<Tuple>) -> Result<Relation, WireError> {
    for t in &tuples {
        t.validate(&scheme).map_err(|e| {
            WireError::Protocol(format!("streamed tuple violates the result scheme: {e}"))
        })?;
    }
    Ok(Relation::from_parts_unchecked(scheme, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::Value;

    #[test]
    fn simple_frames_round_trip() {
        let frames = vec![
            (
                7,
                Frame::Hello {
                    version: PROTO_VERSION,
                    client: "test".into(),
                },
            ),
            (
                8,
                Frame::Query {
                    text: "WHEN (emp)".into(),
                },
            ),
            (9, Frame::Checkpoint),
            (10, Frame::Stats),
            (11, Frame::Cancel),
            (12, Frame::Done { rows: 42 }),
            (
                13,
                Frame::Error {
                    error: WireError::Cancelled,
                },
            ),
        ];
        for (req, frame) in frames {
            let bytes = encode_frame_traced(req, 0, &frame);
            let (got_req, _, got) = decode_frame_traced(&bytes[4..]).unwrap();
            assert_eq!(got_req, req);
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn read_frame_round_trips_through_a_cursor() {
        let frame = Frame::PlanText {
            text: "Scan emp [SeqScan]".into(),
        };
        let bytes = encode_frame_traced(3, 0, &frame);
        let mut cursor = std::io::Cursor::new(bytes);
        let (req, _, got) = read_frame_traced(&mut cursor).unwrap();
        assert_eq!(req, 3);
        assert_eq!(got, frame);
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame_traced(&mut cursor),
            Err(FrameError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_wire_version_is_rejected() {
        let mut bytes = encode_frame_traced(1, 0, &Frame::Stats);
        bytes[4] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_frame_traced(&bytes[4..]),
            Err(FrameError::Protocol(m)) if m.contains("wire version")
        ));
    }

    /// A `RowChunk` body built byte by byte around tuple records naming
    /// `names[i]` in order, each function on `[0, 9]`.
    fn row_chunk_body(rows: &[&[&str]]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(rows.len() as u64);
        for names in rows {
            e.put_lifespan(&Lifespan::interval(0, 9));
            e.put_u64(names.len() as u64);
            for name in *names {
                e.put_str(name);
                e.put_temporal_value(&TemporalValue::of(&[(0, 9, Value::Int(1))]));
            }
        }
        let mut body = vec![WIRE_VERSION, 0x83];
        body.extend_from_slice(&7u64.to_be_bytes());
        body.extend_from_slice(&0u128.to_be_bytes());
        body.extend_from_slice(&e.finish());
        body
    }

    #[test]
    fn row_chunk_rows_share_a_layout_and_reject_a_repeated_name() {
        let (_, _, frame) =
            decode_frame_traced(&row_chunk_body(&[&["K", "V"], &["K", "V"]])).unwrap();
        let Frame::RowChunk { tuples } = frame else {
            panic!("expected a RowChunk, got {frame:?}");
        };
        assert!(tuples[0].layout().same(tuples[1].layout()));
        let err = decode_frame_traced(&row_chunk_body(&[&["K", "V"], &["K", "K"]])).unwrap_err();
        assert!(
            matches!(&err, FrameError::Protocol(m) if m.contains("named twice")),
            "{err:?}"
        );
    }

    #[test]
    fn model_and_db_errors_carry_their_variants() {
        let model = HrdmError::UnknownRelation("ghost".into());
        match WireError::from(&model) {
            WireError::Model { variant, message } => {
                assert_eq!(variant, "UnknownRelation");
                assert!(message.contains("ghost"));
            }
            other => panic!("expected Model, got {other:?}"),
        }
        let db = DbError::Mode("checkpoint on a detached database".into());
        match WireError::from(&db) {
            WireError::Db { variant, .. } => assert_eq!(variant, "Mode"),
            other => panic!("expected Db, got {other:?}"),
        }
        // DbError::Model unwraps to the model variant.
        let wrapped = DbError::Model(HrdmError::EmptyKey);
        assert!(matches!(WireError::from(&wrapped), WireError::Model { .. }));
    }
}

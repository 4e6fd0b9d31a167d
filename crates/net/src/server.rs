//! `hrdmd` — the HRDM network server: a thread-per-connection TCP
//! front end over one shared [`ConcurrentDatabase`].
//!
//! ## Execution model
//!
//! * Every connection gets a **session**: one thread that reads requests,
//!   serves them in order and writes the replies.
//!   - Its **inbox** reads the socket in 16 KiB reads and splits out every
//!     complete frame, checking the declared length before any
//!     allocation. A `Cancel` goes straight into the session's cancelled
//!     set; every other frame joins the pending queue. The session stops
//!     reading while 16 requests are pending, so a client pipelining
//!     faster than the server serves is throttled by TCP backpressure,
//!     not by server memory.
//!   - Every reply frame is encoded straight into one **output buffer**,
//!     written to the socket only when the session is about to block for
//!     input (no parsed request pending), when the buffer passes 64 KiB,
//!     and when the session ends. A one-chunk answer costs one write,
//!     pipelined requests share one, and a long stream leaves in pieces
//!     of about 64 KiB.
//!   - A running query's **cancel probe** drains the socket without
//!     blocking, at most once per millisecond of the request's run time:
//!     a `Cancel` stops a long scan within one batch of being read, and a
//!     sub-millisecond request makes no extra syscall.
//! * **Reads** (`Query`, `Prepare`, `Stats`) run against a per-request
//!   [`DbSnapshot`](hrdm_storage::DbSnapshot) — the same snapshot-isolated,
//!   zero-lock pipeline in-process readers use, so `EXPLAIN`, index scans,
//!   and partition pruning all work unchanged over the wire.
//! * **Writes** (`Execute`) funnel into the group-commit queue of the
//!   shared database; concurrent clients' operations form batches exactly
//!   like concurrent in-process writers (one fsync per batch).
//!
//! ## Limits (the server's DoS posture)
//!
//! * [`ServerConfig::max_connections`] session slots; a connection beyond
//!   that is answered with an `Unavailable` error frame and closed.
//! * [`ServerConfig::max_result_rows`] / [`ServerConfig::max_result_bytes`]
//!   cap each result stream; exceeding either turns the stream into a
//!   `Limit` error instead of unbounded output.
//! * [`ServerConfig::read_timeout`] kills **idle** sessions: it is the
//!   socket's read timeout while the session is blocked for input, which
//!   happens only with no request pending or in flight. A session
//!   mid-request is never timed out by its own silence; a stall in the
//!   middle of a frame is fatal, because a partial frame cannot be
//!   resynchronized.
//! * Frame length declarations above [`crate::frame::MAX_FRAME_BYTES`] are
//!   rejected before any allocation.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, closes every session's read
//! half, then waits for the sessions to end. A session blocked for input
//! wakes with EOF at once. A session mid-request finishes it — a write
//! mid-group-commit is drained, never torn — flushes its replies, and
//! answers any request still pending with `Unavailable`.

use crate::frame::{
    check_frame_len, decode_frame_traced, encode_frame_into, encode_row_chunk_into,
    write_frame_traced, Frame, FrameError, ServerStats, WireError, WireEvent, WriteOp,
    PROTO_VERSION,
};
use hrdm_obs::{
    recorder, Counter, EventKind, Gauge, Histogram, LatencyWindow, RateWindow, Registry, SlowEntry,
    SlowLog,
};
use hrdm_query::{
    explain_analyze_query_text, explain_query_text, stream_query_on_snapshot,
    strip_explain_analyze, CancelProbe, ExecError, ExecOptions, PipelineError, QueryResult,
    QueryStream, StreamedQuery,
};
use hrdm_storage::ConcurrentDatabase;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance. `Default` is sized for tests and
/// small deployments; `hrdmd` exposes each knob as a flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum simultaneous sessions; further connections are refused
    /// with an `Unavailable` error frame.
    pub max_connections: usize,
    /// Maximum rows one result stream may carry.
    pub max_result_rows: u64,
    /// Maximum encoded bytes one result stream may carry.
    pub max_result_bytes: u64,
    /// Tuples per streamed `RowChunk` frame (also the cancellation
    /// granularity: the cancel probe runs between batches).
    pub chunk_rows: usize,
    /// How long an **idle** session may sit before being closed. `None`
    /// disables the idle kill.
    pub read_timeout: Option<Duration>,
    /// Server name reported in `HelloAck`.
    pub server_name: String,
    /// Requests at or above this wall time are recorded in the
    /// slow-query log served by the `Metrics` frame (`\metrics`).
    pub slow_query_threshold: Duration,
    /// When set, an HTTP/1.1 listener is bound here serving
    /// `GET /metrics` (Prometheus exposition) and `GET /healthz`
    /// (`hrdmd --http-metrics <addr>`). `None` disables the plane.
    pub http_metrics: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            max_result_rows: 1_000_000,
            max_result_bytes: 256 * 1024 * 1024,
            chunk_rows: 256,
            read_timeout: Some(Duration::from_secs(30)),
            server_name: format!("hrdmd/{}", env!("CARGO_PKG_VERSION")),
            slow_query_threshold: Duration::from_millis(25),
            http_metrics: None,
        }
    }
}

/// Per-instance observability shared by every session: the cells
/// `\stats` reports, per-kind request-latency histograms, byte
/// counters, and the slow-query log. Every cell lives in the server's
/// own [`Registry`] — the *same* handles back both `ServerStats` and
/// the Prometheus exposition, so the two can never disagree. (The
/// registry is per-instance, not [`hrdm_obs::global`], because tests
/// run many servers per process and each must count only its own
/// traffic.)
struct Counters {
    registry: Registry,
    accepted: Arc<Counter>,
    active: Arc<Gauge>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    requests: Arc<Counter>,
    cancelled: Arc<Counter>,
    plan_ns: Arc<Counter>,
    exec_ns: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    socket_reads: Arc<Counter>,
    socket_writes: Arc<Counter>,
    rows_streamed: Arc<Counter>,
    batches_streamed: Arc<Counter>,
    request_ns: Arc<Histogram>,
    request_ns_query: Arc<Histogram>,
    request_ns_prepare: Arc<Histogram>,
    request_ns_execute: Arc<Histogram>,
    request_ns_checkpoint: Arc<Histogram>,
    request_ns_stats: Arc<Histogram>,
    request_ns_metrics: Arc<Histogram>,
    slowlog: SlowLog,
    /// Rolling 60s request count — the live QPS behind `\top` and the
    /// `hrdm_net_qps` gauge.
    requests_window: RateWindow,
    /// Rolling 60s request-latency window — the rolling p50/p99.
    request_ns_window: LatencyWindow,
    /// Rolling 60s streamed-row count.
    rows_window: RateWindow,
}

impl Counters {
    fn new() -> Counters {
        let registry = Registry::new();
        let accepted = registry.counter(
            "hrdm_net_connections_accepted_total",
            "Connections accepted since server start",
        );
        let active = registry.gauge(
            "hrdm_net_connections_active",
            "Sessions currently holding a connection slot",
        );
        let frames_in = registry.counter(
            "hrdm_net_frames_in_total",
            "Frames decoded off client sockets",
        );
        let frames_out = registry.counter(
            "hrdm_net_frames_out_total",
            "Frames written to client sockets",
        );
        let requests = registry.counter(
            "hrdm_net_requests_total",
            "Requests served (post-handshake frames)",
        );
        let cancelled = registry.counter(
            "hrdm_net_requests_cancelled_total",
            "Requests answered with a Cancelled error",
        );
        let plan_ns = registry.counter(
            "hrdm_net_plan_ns_total",
            "Cumulative query planning time, nanoseconds",
        );
        let exec_ns = registry.counter(
            "hrdm_net_exec_ns_total",
            "Cumulative query execution time, nanoseconds",
        );
        let bytes_in = registry.counter(
            "hrdm_net_bytes_in_total",
            "Request bytes read off client sockets",
        );
        let bytes_out = registry.counter(
            "hrdm_net_bytes_out_total",
            "Response bytes written to client sockets",
        );
        let socket_reads = registry.counter(
            "hrdm_net_socket_reads_total",
            "Read syscalls on client sockets, including ones that found no data",
        );
        let socket_writes = registry.counter(
            "hrdm_net_socket_writes_total",
            "Write syscalls on client sockets",
        );
        let rows_streamed = registry.counter(
            "hrdm_net_rows_streamed_total",
            "Result rows streamed to clients from live executors",
        );
        let batches_streamed = registry.counter(
            "hrdm_net_batches_streamed_total",
            "Result batches streamed to clients from live executors",
        );
        let hist = |kind: &str| {
            registry.histogram(
                &format!("hrdm_net_request_ns_{kind}"),
                &format!("End-to-end latency of {kind} requests, nanoseconds"),
            )
        };
        let request_ns = registry.histogram(
            "hrdm_net_request_ns",
            "End-to-end request latency, nanoseconds (all kinds)",
        );
        Counters {
            accepted,
            active,
            frames_in,
            frames_out,
            requests,
            cancelled,
            plan_ns,
            exec_ns,
            bytes_in,
            bytes_out,
            socket_reads,
            socket_writes,
            rows_streamed,
            batches_streamed,
            request_ns,
            request_ns_query: hist("query"),
            request_ns_prepare: hist("prepare"),
            request_ns_execute: hist("execute"),
            request_ns_checkpoint: hist("checkpoint"),
            request_ns_stats: hist("stats"),
            request_ns_metrics: hist("metrics"),
            slowlog: SlowLog::default(),
            requests_window: RateWindow::new(),
            request_ns_window: LatencyWindow::new(),
            rows_window: RateWindow::new(),
            registry,
        }
    }

    /// The latency histogram and slow-log kind for a client request
    /// frame (`None` for frames that are not valid requests).
    fn request_kind(&self, frame: &Frame) -> Option<(&'static str, Arc<Histogram>)> {
        match frame {
            Frame::Query { .. } => Some(("query", Arc::clone(&self.request_ns_query))),
            Frame::Prepare { .. } => Some(("prepare", Arc::clone(&self.request_ns_prepare))),
            Frame::Execute { .. } => Some(("execute", Arc::clone(&self.request_ns_execute))),
            Frame::Checkpoint => Some(("checkpoint", Arc::clone(&self.request_ns_checkpoint))),
            Frame::Stats => Some(("stats", Arc::clone(&self.request_ns_stats))),
            Frame::Metrics => Some(("metrics", Arc::clone(&self.request_ns_metrics))),
            _ => None,
        }
    }
}

pub(crate) struct Shared {
    db: Arc<ConcurrentDatabase>,
    config: ServerConfig,
    counters: Counters,
    shutdown: AtomicBool,
    /// Stops the HTTP metrics listener (raised *after* the drain, so
    /// `/healthz` can report 503 while sessions finish).
    http_stop: AtomicBool,
    /// Socket handles of live sessions, keyed by session id. Shutdown
    /// closes each one's read half, which wakes a session blocked for
    /// input with EOF.
    sessions: Mutex<HashMap<u64, TcpStream>>,
    next_session: AtomicU64,
    started: Instant,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let snap = self.db.snapshot();
        let commit = self.db.stats();
        let request_ns = self.counters.request_ns.snapshot();
        ServerStats {
            connections_accepted: self.counters.accepted.get(),
            connections_active: self.counters.active.get().max(0) as u64,
            frames_in: self.counters.frames_in.get(),
            frames_out: self.counters.frames_out.get(),
            requests: self.counters.requests.get(),
            cancelled: self.counters.cancelled.get(),
            plan_ns: self.counters.plan_ns.get(),
            exec_ns: self.counters.exec_ns.get(),
            commit_batches: commit.batches,
            commit_ops: commit.ops,
            commit_max_batch: commit.max_batch as u64,
            commit_last_batch: commit.last_batch as u64,
            snapshot_version: snap.version(),
            bytes_in: self.counters.bytes_in.get(),
            bytes_out: self.counters.bytes_out.get(),
            request_p50_ns: request_ns.p50().unwrap_or(0),
            request_p95_ns: request_ns.p95().unwrap_or(0),
            request_p99_ns: request_ns.p99().unwrap_or(0),
            rows_streamed: self.counters.rows_streamed.get(),
            batches_streamed: self.counters.batches_streamed.get(),
            qps_milli_60s: (self.counters.requests_window.per_second() * 1e3) as u64,
            p50_60s_ns: self.counters.request_ns_window.merged().p50().unwrap_or(0),
            p99_60s_ns: self.counters.request_ns_window.merged().p99().unwrap_or(0),
            pool_hit_permille_60s: hrdm_obs::window::pool_windows()
                .hit_ratio()
                .map(|r| (r * 1e3) as u64)
                .unwrap_or(u64::MAX),
            uptime_secs: self.started.elapsed().as_secs(),
            top_streamed: hrdm_obs::window::top_relations().top(8),
            relations: snap
                .relation_names()
                .map(|name| {
                    let count = snap.relation(name).map(|r| r.len() as u64).unwrap_or(0);
                    (name.to_string(), count)
                })
                .collect(),
        }
    }

    /// The full Prometheus exposition the `Metrics` frame (and the
    /// HTTP `/metrics` endpoint) serves: this server's own families,
    /// then the process-wide engine families (WAL, checkpoint, group
    /// commit, query operators — disjoint name prefixes, so
    /// concatenation is a valid document), then build info, the
    /// rolling-window gauges, the flight-recorder summary, and the
    /// slow-query log as `# slowlog:` comment lines.
    pub(crate) fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.counters.registry.render_prometheus();
        out.push_str(&hrdm_obs::global().render_prometheus());
        out.push_str(&hrdm_obs::registry::render_build_info(
            env!("CARGO_PKG_VERSION"),
            option_env!("HRDM_GIT_HASH").unwrap_or("unknown"),
            self.started.elapsed().as_secs(),
        ));
        let gauge = |out: &mut String, name: &str, help: &str, value: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            &mut out,
            "hrdm_net_qps",
            "Requests per second over the trailing 60s.",
            format!("{:.3}", self.counters.requests_window.per_second()),
        );
        gauge(
            &mut out,
            "hrdm_net_request_p50_60s_ns",
            "Rolling 60s request latency p50, nanoseconds.",
            self.counters
                .request_ns_window
                .merged()
                .p50()
                .unwrap_or(0)
                .to_string(),
        );
        gauge(
            &mut out,
            "hrdm_net_request_p99_60s_ns",
            "Rolling 60s request latency p99, nanoseconds.",
            self.counters
                .request_ns_window
                .merged()
                .p99()
                .unwrap_or(0)
                .to_string(),
        );
        gauge(
            &mut out,
            "hrdm_net_rows_streamed_60s",
            "Result rows streamed over the trailing 60s.",
            self.counters.rows_window.total().to_string(),
        );
        if let Some(ratio) = hrdm_obs::window::pool_windows().hit_ratio() {
            gauge(
                &mut out,
                "hrdm_pool_hit_ratio_60s",
                "Rolling 60s buffer-pool hit ratio in [0, 1].",
                format!("{ratio:.4}"),
            );
        }
        out.push_str(&recorder().render_summary());
        out.push_str(&self.counters.slowlog.render_comments());
        out
    }

    /// Whether the server is draining (shutdown requested): `/healthz`
    /// flips to 503 the moment this is true.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether the HTTP listener should exit (raised after the drain).
    pub(crate) fn http_stopped(&self) -> bool {
        self.http_stop.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server. [`Server::spawn`] starts the accept
/// loop on a background thread and returns the handle used to observe and
/// stop it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) over
    /// `db` with `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<ConcurrentDatabase>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                db,
                config,
                counters: Counters::new(),
                shutdown: AtomicBool::new(false),
                http_stop: AtomicBool::new(false),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (the real port, when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread (plus the HTTP
    /// metrics listener, when [`ServerConfig::http_metrics`] is set).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let accept_shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let (http_addr, http_join) = match &shared.config.http_metrics {
            Some(http) => {
                let (a, j) = crate::http::spawn(http, Arc::clone(&shared))?;
                (Some(a), Some(j))
            }
            None => (None, None),
        };
        let join = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ServerHandle {
            addr,
            http_addr,
            shared,
            join: Some(join),
            http_join,
        })
    }

    /// Runs the accept loop on the calling thread (the `hrdmd` binary's
    /// mode). Returns only when the shutdown flag is raised by another
    /// holder of the shared state — which a plain binary run never does,
    /// so in practice: runs forever.
    pub fn run(self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        if let Some(addr) = &shared.config.http_metrics {
            crate::http::spawn(addr, Arc::clone(&shared))?;
        }
        accept_loop(&self.listener, &shared);
        Ok(())
    }
}

/// A running server: its address, counters, and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
    http_join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP metrics address, when the plane is enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Raises the drain flag without waiting: new requests are refused
    /// and `/healthz` flips to 503, but sessions and the HTTP listener
    /// stay up. [`ServerHandle::shutdown`] still completes the stop.
    pub fn begin_drain(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// The server-side view of the counters (the same numbers a `Stats`
    /// request returns, without a connection).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The Prometheus text exposition a `Metrics` request returns,
    /// without a connection: this server's families, the process-wide
    /// engine families, and the slow-query log.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Sessions currently holding a slot.
    pub fn active_connections(&self) -> u64 {
        self.shared.counters.active.get().max(0) as u64
    }

    /// Graceful shutdown: stop accepting, wake idle sessions, and wait
    /// (up to ~10 s) for in-flight requests — including writes queued for
    /// group commit — to drain.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        // Close every session's read half: idle readers wake with EOF and
        // exit; a worker mid-request keeps its write half and finishes.
        {
            let sessions = self.shared.sessions.lock().expect("sessions lock");
            for stream in sessions.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.counters.active.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Only now stop the HTTP plane, so `/healthz` reported the drain.
        self.shared.http_stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.http_join.take() {
            let _ = join.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.counters.accepted.inc();
        // Claim a slot; over the limit, answer with a structured refusal
        // instead of silently dropping the connection.
        let prev = shared.counters.active.fetch_add(1);
        if prev >= shared.config.max_connections as i64 {
            shared.counters.active.dec();
            let mut stream = stream;
            let _ = write_frame_traced(
                &mut stream,
                0,
                0,
                &Frame::Error {
                    error: WireError::Unavailable(format!(
                        "connection limit ({}) reached",
                        shared.config.max_connections
                    )),
                },
            );
            continue;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            // lint: atomic-ordering-ok(session ids only need uniqueness; no data is published through this counter)
            let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
            session(&shared, stream, session_id);
            // The slot is freed however the session ended — clean close,
            // protocol violation, or the client dying mid-frame.
            shared
                .sessions
                .lock()
                .expect("sessions lock")
                .remove(&session_id);
            shared.counters.active.dec();
        });
    }
}

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 16 * 1024;

/// Parsed requests a session holds before it stops reading the socket.
const MAX_PENDING: usize = 16;

/// The output buffer is written out once it holds this many bytes.
const FLUSH_BYTES: usize = 64 * 1024;

/// A running query drains the socket for `Cancel` frames at most once per
/// this many nanoseconds of its run time.
const CANCEL_POLL_NS: u64 = 1_000_000;

/// Stale-cancel bound: cancels that raced past their request's
/// completion are re-recorded; keep only the most recent few so a
/// long-lived session cannot grow the set without bound.
const MAX_STALE_CANCELS: usize = 64;

fn session(shared: &Arc<Shared>, stream: TcpStream, session_id: u64) {
    let _ = stream.set_nodelay(true);
    // Only a session blocked for input makes a blocking read, so this is
    // the idle timeout.
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    shared
        .sessions
        .lock()
        .expect("sessions lock")
        .insert(session_id, handle);
    recorder().record(EventKind::SessionOpen, format!("session={session_id}"));
    let mut session = Session {
        shared: Arc::clone(shared),
        inbox: Arc::new(Mutex::new(Inbox {
            shared: Arc::clone(shared),
            stream,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            pending: VecDeque::new(),
            cancelled: BTreeSet::new(),
            ended: None,
        })),
        out: Vec::new(),
    };
    session.run();
    let _ = session.flush();
    recorder().record(EventKind::SessionClose, format!("session={session_id}"));
    // Close the socket: the peer sees EOF instead of a silent stall.
    let _ = session.inbox().stream.shutdown(Shutdown::Both);
}

/// A parsed request: request id, the trace id the client stamped in the
/// frame header, and the frame.
struct Request {
    req: u64,
    trace: u128,
    frame: Frame,
}

/// Why a session's input ended.
enum Ended {
    /// EOF, a dead peer, the idle timeout, or a stall mid-frame.
    Closed,
    /// The peer broke the framing, which cannot be resynchronized: the
    /// session serves what it parsed before, reports this, and closes.
    Protocol(String),
}

impl From<FrameError> for Ended {
    fn from(e: FrameError) -> Ended {
        match e {
            FrameError::Protocol(msg) => Ended::Protocol(msg),
            FrameError::Io(_) => Ended::Closed,
        }
    }
}

/// The read side of a session: the socket, bytes received but not yet
/// parsed, requests parsed but not yet served, and the cancelled request
/// ids. It sits behind a mutex because a running query's cancel probe
/// drains the socket too, from inside the executor's pull loop. Every
/// read and write on the socket happens under that lock, so the probe's
/// non-blocking window never overlaps a blocking call.
struct Inbox {
    shared: Arc<Shared>,
    stream: TcpStream,
    /// `buf[start..end]` is received and not yet parsed: after a parse,
    /// at most one partial frame.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    pending: VecDeque<Request>,
    cancelled: BTreeSet<u64>,
    ended: Option<Ended>,
}

impl Inbox {
    /// One read of up to [`READ_CHUNK`] bytes, then every frame it
    /// completes is parsed. EOF ends the input. Returns the bytes read.
    fn read_and_parse(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            // Give back the room a large frame needed.
            if self.buf.len() > 4 * READ_CHUNK {
                self.buf.truncate(READ_CHUNK);
                self.buf.shrink_to_fit();
            }
        }
        if self.buf.len() - self.end < READ_CHUNK {
            // Move the partial frame to the front; grow only when it
            // leaves no room for a full read.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        self.shared.counters.socket_reads.inc();
        let n = self
            .stream
            .read(&mut self.buf[self.end..self.end + READ_CHUNK])?;
        if n == 0 {
            self.ended = Some(Ended::Closed);
        } else {
            self.end += n;
            self.parse();
        }
        Ok(n)
    }

    /// Splits every complete frame out of the unparsed bytes: a `Cancel`
    /// into the cancelled set, anything else onto the pending queue. A
    /// declared length is checked before the frame's body is waited for.
    fn parse(&mut self) {
        while self.ended.is_none() {
            let unparsed = &self.buf[self.start..self.end];
            let Some(prefix) = unparsed.first_chunk::<4>() else {
                return;
            };
            let len = u32::from_be_bytes(*prefix);
            if let Err(e) = check_frame_len(len) {
                self.ended = Some(e.into());
                return;
            }
            let total = 4 + len as usize;
            let Some(body) = unparsed.get(4..total) else {
                return; // the rest of the frame has not arrived yet
            };
            let decoded = decode_frame_traced(body);
            self.start += total;
            let (req, trace, frame) = match decoded {
                Ok(decoded) => decoded,
                Err(e) => {
                    self.ended = Some(e.into());
                    return;
                }
            };
            self.shared.counters.frames_in.inc();
            self.shared.counters.bytes_in.add(total as u64);
            if let Frame::Cancel = frame {
                recorder().record_traced(trace, EventKind::Cancel, format!("req={req}"));
                self.cancelled.insert(req);
                while self.cancelled.len() > MAX_STALE_CANCELS {
                    self.cancelled.pop_first();
                }
            } else {
                self.pending.push_back(Request { req, trace, frame });
            }
        }
    }

    /// Blocks until input arrives. Any failure ends the input: a dead
    /// peer, the idle timeout, or a stall mid-frame.
    fn receive(&mut self) {
        let mut got = self.read_and_parse();
        while matches!(&got, Err(e) if e.kind() == io::ErrorKind::Interrupted) {
            got = self.read_and_parse();
        }
        if got.is_err() {
            self.ended = Some(Ended::Closed);
        }
    }

    /// Drains what the socket already holds, without blocking: the
    /// cancel probe's read. Skipped while [`MAX_PENDING`] requests wait,
    /// which keeps TCP backpressure on a client that pipelines faster
    /// than the session serves.
    fn poll(&mut self) {
        if self.ended.is_some()
            || self.pending.len() >= MAX_PENDING
            || self.stream.set_nonblocking(true).is_err()
        {
            return;
        }
        while self.ended.is_none() && self.pending.len() < MAX_PENDING {
            match self.read_and_parse() {
                // A short read emptied the socket.
                Ok(n) if n < READ_CHUNK => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => self.ended = Some(Ended::Closed),
            }
        }
        let _ = self.stream.set_nonblocking(false);
    }

    /// Writes `out` to the socket and empties it; every `write` call is
    /// counted.
    fn write_out(&self, out: &mut Vec<u8>) -> io::Result<()> {
        let mut rest = &out[..];
        while !rest.is_empty() {
            self.shared.counters.socket_writes.inc();
            match (&self.stream).write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        out.clear();
        // Give back the room an outsized reply needed.
        if out.capacity() > 4 * FLUSH_BYTES {
            out.shrink_to(FLUSH_BYTES);
        }
        Ok(())
    }
}

/// One connection, served on its own thread: the inbox it shares with
/// its queries' cancel probes, and the output buffer every reply frame is
/// encoded into.
struct Session {
    shared: Arc<Shared>,
    inbox: Arc<Mutex<Inbox>>,
    out: Vec<u8>,
}

impl Session {
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("inbox lock")
    }

    /// Serves requests in arrival order until the input ends, a reply
    /// cannot be written, or a request ends the session.
    fn run(&mut self) {
        let mut hello_done = false;
        while let Some(Request { req, trace, frame }) = self.next_request() {
            // Install the client's trace id as the thread's ambient trace:
            // every response echoes it, and every span, event, and slowlog
            // entry recorded while serving this request is stamped with it.
            let _scope = hrdm_obs::trace::set_current(trace);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let _ = self.send(
                    req,
                    &Frame::Error {
                        error: WireError::Unavailable("server shutting down".into()),
                    },
                );
                return;
            }
            let ok = if hello_done {
                self.serve(req, frame)
            } else {
                hello_done = self.handshake(req, &frame);
                hello_done
            };
            self.inbox().cancelled.remove(&req);
            if !ok {
                return;
            }
        }
        let ended = self.inbox().ended.take();
        if let Some(Ended::Protocol(msg)) = ended {
            let _ = self.send(
                0,
                &Frame::Error {
                    error: WireError::Protocol(msg),
                },
            );
        }
    }

    /// The next request to serve. With none parsed, the replies so far
    /// are flushed — the client may be waiting on them — before the
    /// session blocks for input. `None` once the input has ended and the
    /// queue is empty, or when the flush fails.
    fn next_request(&mut self) -> Option<Request> {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        loop {
            if let Some(request) = inbox.pending.pop_front() {
                return Some(request);
            }
            if inbox.ended.is_some() {
                return None;
            }
            inbox.write_out(&mut self.out).ok()?;
            inbox.receive();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let inbox = self.inbox.lock().expect("inbox lock");
        inbox.write_out(&mut self.out)
    }

    fn flush_if_full(&mut self) -> io::Result<()> {
        if self.out.len() < FLUSH_BYTES {
            Ok(())
        } else {
            self.flush()
        }
    }

    /// Encodes one response frame into the output buffer, echoing the
    /// thread's ambient trace id (installed by [`Session::run`] from the
    /// request header) so the client can match responses to the trace it
    /// minted. Error frames double as anomaly triggers: the flight
    /// recorder freezes the trailing event window for each one.
    fn send(&mut self, req: u64, frame: &Frame) -> io::Result<()> {
        let trace = hrdm_obs::trace::current().unwrap_or(0);
        if let Frame::Error { error } = frame {
            recorder().record_traced(trace, EventKind::Error, format!("req={req} {error}"));
            recorder().anomaly(format!("error frame: {error}"));
        }
        let before = self.out.len();
        encode_frame_into(&mut self.out, req, trace, frame);
        self.shared.counters.frames_out.inc();
        self.shared
            .counters
            .bytes_out
            .add((self.out.len() - before) as u64);
        self.flush_if_full()
    }

    /// The executor's cancel probe for `req`, pulled between batches. At
    /// most once per [`CANCEL_POLL_NS`] of the request's run time, a call
    /// that wins `try_lock` on the inbox drains the socket without
    /// blocking and looks `req` up in the cancelled set; a hit is
    /// latched.
    fn cancel_probe(&self, req: u64) -> CancelProbe {
        let inbox = Arc::clone(&self.inbox);
        let started = Instant::now();
        let next_poll_ns = AtomicU64::new(CANCEL_POLL_NS);
        let hit = AtomicBool::new(false);
        Arc::new(move || {
            if hit.load(Ordering::SeqCst) {
                return true;
            }
            let now = started.elapsed().as_nanos() as u64;
            if now < next_poll_ns.load(Ordering::SeqCst) {
                return false;
            }
            let Ok(mut inbox) = inbox.try_lock() else {
                return false;
            };
            next_poll_ns.store(now + CANCEL_POLL_NS, Ordering::SeqCst);
            inbox.poll();
            let cancelled = inbox.cancelled.contains(&req);
            hit.store(cancelled, Ordering::SeqCst);
            cancelled
        })
    }

    /// Serves the mandatory first frame. `true` when the session may
    /// continue; `false` closes it (version mismatch, non-Hello opener).
    fn handshake(&mut self, req: u64, frame: &Frame) -> bool {
        let refusal = match frame {
            Frame::Hello { version, .. } if *version == PROTO_VERSION => {
                let ack = Frame::HelloAck {
                    version: PROTO_VERSION,
                    server: self.shared.config.server_name.clone(),
                };
                return self.send(req, &ack).is_ok();
            }
            Frame::Hello { version, .. } => format!(
                "protocol version mismatch: client speaks {version}, server speaks {PROTO_VERSION}"
            ),
            other => format!(
                "expected Hello as the first frame, got kind {:#x}",
                other.kind()
            ),
        };
        let _ = self.send(
            req,
            &Frame::Error {
                error: WireError::Protocol(refusal),
            },
        );
        false
    }

    /// Serves one request. `false` ends the session (socket write failed).
    fn serve(&mut self, req: u64, frame: Frame) -> bool {
        self.shared.counters.requests.inc();
        let kind = self.shared.counters.request_kind(&frame);
        // Capture what the slow-query log would need before the frame is
        // consumed by dispatch.
        let slow_text = match &frame {
            Frame::Query { text } | Frame::Prepare { text } => Some(text.clone()),
            Frame::Execute { op } => Some(describe_op(op)),
            _ => None,
        };
        let started = Instant::now();
        let ok = match frame {
            Frame::Query { text } => self.serve_query(req, &text),
            Frame::Prepare { text } => {
                let response = prepare(&self.shared, &text);
                self.send(req, &response).is_ok()
            }
            Frame::Execute { op } => {
                let response = execute(&self.shared, op);
                self.send(req, &response).is_ok()
            }
            Frame::Checkpoint => {
                let response = match self.shared.db.checkpoint() {
                    Ok(()) => Frame::Ack { rows: 0 },
                    Err(e) => Frame::Error {
                        error: WireError::from(&e),
                    },
                };
                self.send(req, &response).is_ok()
            }
            Frame::Stats => {
                let stats = self.shared.stats();
                self.send(req, &Frame::StatsResult { stats }).is_ok()
            }
            Frame::Metrics => {
                let text = self.shared.metrics_text();
                self.send(req, &Frame::MetricsResult { text }).is_ok()
            }
            Frame::Events { limit } => {
                let events = recorder()
                    .snapshot(limit.min(u64::from(u32::MAX)) as usize)
                    .iter()
                    .map(WireEvent::from_record)
                    .collect();
                self.send(req, &Frame::EventsResult { events }).is_ok()
            }
            other => self
                .send(
                    req,
                    &Frame::Error {
                        error: WireError::Protocol(format!(
                            "frame kind {:#x} is not a client request",
                            other.kind()
                        )),
                    },
                )
                .is_ok(),
        };
        let shared = &self.shared;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        shared.counters.request_ns.record(elapsed_ns);
        shared.counters.requests_window.add(1);
        shared.counters.request_ns_window.record(elapsed_ns);
        if let Some((kind, histogram)) = kind {
            histogram.record(elapsed_ns);
            let threshold = shared.config.slow_query_threshold.as_nanos() as u64;
            if elapsed_ns >= threshold {
                // The plan is re-derived from a fresh snapshot — cheap
                // relative to a request that just cleared the threshold,
                // and only queries have one.
                let plan = slow_text
                    .as_deref()
                    .filter(|_| kind == "query")
                    .and_then(|text| explain_query_text(text, &*shared.db.snapshot()).ok());
                let text = slow_text.unwrap_or_default();
                recorder().record(
                    EventKind::SlowQuery,
                    format!("kind={kind} ns={elapsed_ns} text={text}"),
                );
                recorder().anomaly(format!("slowlog admission: {kind} {elapsed_ns} ns"));
                shared.counters.slowlog.record(SlowEntry {
                    kind,
                    text,
                    total_ns: elapsed_ns,
                    plan,
                    trace: hrdm_obs::trace::current().unwrap_or(0),
                });
            }
        }
        ok
    }

    fn serve_query(&mut self, req: u64, text: &str) -> bool {
        if self.inbox().cancelled.contains(&req) {
            self.shared.counters.cancelled.inc();
            return self
                .send(
                    req,
                    &Frame::Error {
                        error: WireError::Cancelled,
                    },
                )
                .is_ok();
        }
        let shared = Arc::clone(&self.shared);
        let snap = shared.db.snapshot();
        // The executor pulls this probe between batches, so a Cancel frame
        // aborts the scan itself — within one batch of being read — not
        // just the chunk loop.
        let opts = ExecOptions {
            batch_rows: shared.config.chunk_rows.max(1),
            max_rows: Some(shared.config.max_result_rows),
            cancel: Some(self.cancel_probe(req)),
        };
        let ok = match stream_query_on_snapshot(text, &*snap, &opts) {
            Ok(StreamedQuery::Rows(rows)) => {
                shared.counters.plan_ns.add(rows.plan_ns());
                let exec_started = Instant::now();
                let ok = self.stream_live(req, rows);
                shared
                    .counters
                    .exec_ns
                    .add(exec_started.elapsed().as_nanos() as u64);
                ok
            }
            Ok(StreamedQuery::Lifespan { value, timing }) => {
                shared.counters.plan_ns.add(timing.plan_ns);
                shared.counters.exec_ns.add(timing.exec_ns);
                self.send(req, &Frame::LifespanResult { lifespan: value })
                    .is_ok()
            }
            Ok(StreamedQuery::Function { value, timing }) => {
                shared.counters.plan_ns.add(timing.plan_ns);
                shared.counters.exec_ns.add(timing.exec_ns);
                self.send(req, &Frame::FunctionResult { value }).is_ok()
            }
            Err(e) => {
                if matches!(e, PipelineError::Cancelled) {
                    shared.counters.cancelled.inc();
                }
                self.send(
                    req,
                    &Frame::Error {
                        error: pipeline_error(&e),
                    },
                )
                .is_ok()
            }
        };
        ok
    }

    /// Streams a live executor's batches as header + chunks + done. Each
    /// `RowChunk` is encoded from a batch as the executor produces it, so
    /// the first chunk can leave (at the next flush) before the scan has
    /// finished, and a Cancel (or the row cap) cuts the stream mid-scan.
    /// The byte cap is enforced here, on actual encoded frame sizes.
    fn stream_live(&mut self, req: u64, mut rows: QueryStream<'_>) -> bool {
        let header = Frame::RelationHeader {
            scheme: rows.scheme().clone(),
            rows: 0, // unknown until the stream drains; Done is authoritative
        };
        if self.send(req, &header).is_err() {
            return false;
        }
        let trace = hrdm_obs::trace::current().unwrap_or(0);
        let max_bytes = self.shared.config.max_result_bytes;
        let mut sent_rows: u64 = 0;
        let mut sent_bytes: u64 = 0;
        loop {
            match rows.next_batch() {
                Ok(Some(batch)) => {
                    let n = batch.len() as u64;
                    let before = self.out.len();
                    encode_row_chunk_into(&mut self.out, req, trace, batch.rows());
                    let bytes = (self.out.len() - before) as u64;
                    sent_bytes += bytes;
                    if sent_bytes > max_bytes {
                        self.out.truncate(before);
                        let error = WireError::Limit(format!(
                            "result stream exceeds the {max_bytes}-byte cap"
                        ));
                        return self.send(req, &Frame::Error { error }).is_ok();
                    }
                    let counters = &self.shared.counters;
                    counters.frames_out.inc();
                    counters.bytes_out.add(bytes);
                    counters.rows_streamed.add(n);
                    counters.rows_window.add(n);
                    counters.batches_streamed.inc();
                    sent_rows += n;
                    if self.flush_if_full().is_err() {
                        return false;
                    }
                }
                Ok(None) => return self.send(req, &Frame::Done { rows: sent_rows }).is_ok(),
                Err(e) => {
                    let error = match e {
                        ExecError::Cancelled => {
                            self.shared.counters.cancelled.inc();
                            WireError::Cancelled
                        }
                        ExecError::RowLimit(n) => WireError::Limit(format!(
                            "result exceeds the cap of {n} rows; the stream was cut off"
                        )),
                        ExecError::Eval(h) => WireError::from(&h),
                    };
                    return self.send(req, &Frame::Error { error }).is_ok();
                }
            }
        }
    }
}

/// A one-line description of a write op for the slow-query log.
fn describe_op(op: &WriteOp) -> String {
    match op {
        WriteOp::CreateRelation { name, .. } => format!("create relation {name}"),
        WriteOp::Insert { relation, .. } => format!("insert into {relation}"),
        WriteOp::Materialize { name, query } => format!("{name} := {query}"),
    }
}

/// The reply to a `Prepare`: the plan of `text` on a fresh snapshot.
fn prepare(shared: &Shared, text: &str) -> Frame {
    let snap = shared.db.snapshot();
    // `EXPLAIN ANALYZE <query>` rides the Prepare/PlanText plumbing:
    // same request frame, same response kind, but the plan comes back
    // annotated with measured per-operator times and row counts.
    let outcome = match strip_explain_analyze(text) {
        Some(query) => explain_analyze_query_text(query, &*snap),
        None => explain_query_text(text, &*snap),
    };
    match outcome {
        Ok(text) => Frame::PlanText { text },
        Err(e) => Frame::Error {
            error: pipeline_error(&e),
        },
    }
}

/// The reply to an `Execute`: the write's outcome through group commit.
fn execute(shared: &Shared, op: WriteOp) -> Frame {
    match op {
        WriteOp::CreateRelation { name, scheme } => {
            match shared.db.create_relation(&name, scheme) {
                Ok(()) => Frame::Ack { rows: 0 },
                Err(e) => Frame::Error {
                    error: WireError::from(&e),
                },
            }
        }
        WriteOp::Insert { relation, tuple } => match shared.db.insert(&relation, tuple) {
            Ok(()) => Frame::Ack { rows: 1 },
            Err(e) => Frame::Error {
                error: WireError::from(&e),
            },
        },
        WriteOp::Materialize { name, query } => materialize(shared, &name, &query),
    }
}

/// The wire form of the shell's `name := query`: evaluate against the
/// current snapshot, then create-or-replace through one atomic
/// group-commit group ([`ConcurrentDatabase::materialize`] — racing
/// materializations both succeed, and readers never see the
/// created-but-empty intermediate state).
fn materialize(shared: &Shared, name: &str, query: &str) -> Frame {
    let snap = shared.db.snapshot();
    let r = match hrdm_query::run_query_on_snapshot(query, &*snap) {
        Ok(QueryResult::Relation(r)) => r,
        Ok(_) => {
            return Frame::Error {
                error: WireError::Unsupported(
                    "only relation-sorted queries can be materialized".into(),
                ),
            }
        }
        Err(e) => {
            return Frame::Error {
                error: pipeline_error(&e),
            }
        }
    };
    let rows = r.len() as u64;
    match shared.db.materialize(name, r) {
        Ok(()) => Frame::Ack { rows },
        Err(e) => Frame::Error {
            error: WireError::from(&e),
        },
    }
}

fn pipeline_error(e: &PipelineError) -> WireError {
    match e {
        PipelineError::Parse(p) => WireError::Parse(p.to_string()),
        PipelineError::Eval(m) => WireError::from(m),
        PipelineError::Cancelled => WireError::Cancelled,
        PipelineError::Limit(m) => WireError::Limit(m.clone()),
    }
}

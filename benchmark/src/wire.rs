//! The served side: the shipped `hrdmd` binary as a child process, and a
//! frame-level client.
//!
//! Query traffic reads frames itself rather than through
//! `hrdm_net::Client::query`: that call reassembles every result into a
//! key-checked `Relation`, which is quadratic in the result size and
//! refuses legal results whose tuples share a key (the UNION of two
//! overlapping slices). The frame codec is the engine's own
//! (`hrdm_net::frame`), so the wire dialect cannot drift. Control traffic
//! (checkpoint, stats, metrics) goes through `hrdm_net::Client`.

use hrdm_core::{TemporalValue, Tuple};
use hrdm_net::frame::read_frame_after_len;
use hrdm_net::{write_frame_traced, Frame, WriteOp, PROTO_VERSION};
use hrdm_time::Lifespan;
use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `hrdmd`. Dropping it kills the process and waits for it, so
/// no path out of the benchmark (including a panic) leaves a server behind.
pub struct Hrdmd {
    child: Child,
    addr: String,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Hrdmd {
    /// Spawns `bin` attached to `dir` on an ephemeral loopback port and
    /// waits for its `listening on` line.
    pub fn spawn(bin: &Path, dir: &Path) -> io::Result<Hrdmd> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "hrdmd exited before listening: {}",
                    seen.trim()
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("hrdmd: listening on ") {
                break addr.to_string();
            }
            seen.push_str(&line);
        };
        // Keep the pipe drained so a chatty server can never block on it.
        let stderr_drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        Ok(Hrdmd {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn status_path(&self) -> String {
        format!("/proc/{}/status", self.child.id())
    }

    /// Peak resident set of the server process so far, in KiB.
    pub fn vm_hwm_kib(&self) -> u64 {
        vm_hwm_kib(&self.status_path())
    }

    /// Processor time (user + system, all threads) the server has used so
    /// far, in microseconds.
    pub fn cpu_us(&self) -> u64 {
        cpu_us(&format!("/proc/{}/stat", self.child.id()))
    }

    /// SIGKILL, then reap. The OS page cache survives, so what this checks
    /// is a process crash, not a power loss.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Hrdmd {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB (0 if unreadable).
pub fn vm_hwm_kib(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `utime + stime` of a `/proc/<pid>/stat` file, in microseconds (0 if
/// unreadable). The fields are in clock ticks, which `/proc` always
/// reports at 100 per second.
pub fn cpu_us(stat_path: &str) -> u64 {
    std::fs::read_to_string(stat_path)
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0, |ticks| ticks * 10_000)
}

/// Fields 14 and 15 of a `stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

static REFUSED: AtomicU64 = AtomicU64::new(0);

/// Connections the server refused at `Hello` since this process started.
pub fn connections_refused() -> u64 {
    REFUSED.load(Ordering::Relaxed)
}

/// What a query reply carried.
#[derive(Debug, Default)]
pub struct Reply {
    pub rows: u64,
    /// The first streamed tuple (key probes check it exactly).
    pub first: Option<Tuple>,
    pub lifespan: Option<Lifespan>,
    pub function: Option<TemporalValue>,
    pub frames: u64,
    pub bytes: u64,
}

/// One connection speaking the `hrdmd` frame protocol: one request at a
/// time, or pipelined through [`Wire::send_query`] / [`Wire::recv_reply`].
pub struct Wire {
    stream: TcpStream,
    next_req: u64,
}

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut wire = Wire {
            stream,
            next_req: 1,
        };
        let req = wire.send(&Frame::Hello {
            version: PROTO_VERSION,
            client: "hrdm-benchmark".to_string(),
        })?;
        match wire.recv(req)? {
            (Frame::HelloAck { .. }, _) => Ok(wire),
            (Frame::Error { error }, _) => {
                REFUSED.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!("refused: {error}")))
            }
            (other, _) => Err(unexpected("HelloAck", &other)),
        }
    }

    fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        let req = self.next_req;
        self.next_req += 1;
        write_frame_traced(&mut self.stream, req, 0, frame)?;
        Ok(req)
    }

    /// The next frame of request `req` and its size on the wire.
    fn recv(&mut self, req: u64) -> io::Result<(Frame, u64)> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_be_bytes(len);
        let (got, _trace, frame) = read_frame_after_len(&mut self.stream, len).map_err(other)?;
        if got != req && got != 0 {
            return Err(io::Error::other(format!(
                "reply for request {got} while waiting on {req}"
            )));
        }
        Ok((frame, 4 + u64::from(len)))
    }

    /// Sends query text without waiting for its reply. The server answers
    /// a connection's requests in order, so several may be in flight.
    pub fn send_query(&mut self, text: &str) -> io::Result<u64> {
        self.send(&Frame::Query {
            text: text.to_string(),
        })
    }

    /// Drains the reply to request `req`. `each` sees every streamed tuple
    /// after the first (which is kept in the [`Reply`]).
    pub fn recv_reply(&mut self, req: u64, mut each: impl FnMut(&Tuple)) -> io::Result<Reply> {
        let mut reply = Reply::default();
        loop {
            let (frame, bytes) = self.recv(req)?;
            reply.frames += 1;
            reply.bytes += bytes;
            match frame {
                Frame::RelationHeader { .. } => {}
                Frame::RowChunk { tuples } => {
                    reply.rows += tuples.len() as u64;
                    let mut it = tuples.into_iter();
                    if reply.first.is_none() {
                        reply.first = it.next();
                    }
                    for t in it {
                        each(&t);
                    }
                }
                Frame::Done { rows } => {
                    if rows != reply.rows {
                        return Err(io::Error::other(format!(
                            "server announced {rows} rows but streamed {}",
                            reply.rows
                        )));
                    }
                    return Ok(reply);
                }
                Frame::LifespanResult { lifespan } => {
                    reply.lifespan = Some(lifespan);
                    return Ok(reply);
                }
                Frame::FunctionResult { value } => {
                    reply.function = Some(value);
                    return Ok(reply);
                }
                Frame::Error { error } => return Err(io::Error::other(error.to_string())),
                other => return Err(unexpected("a result frame", &other)),
            }
        }
    }

    /// Runs query text and drains the reply.
    pub fn query_each(&mut self, text: &str, each: impl FnMut(&Tuple)) -> io::Result<Reply> {
        let req = self.send_query(text)?;
        self.recv_reply(req, each)
    }

    pub fn query(&mut self, text: &str) -> io::Result<Reply> {
        self.query_each(text, |_| {})
    }

    /// One durable insert; returns once the server acknowledged it.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> io::Result<()> {
        let req = self.send(&Frame::Execute {
            op: WriteOp::Insert {
                relation: relation.to_string(),
                tuple,
            },
        })?;
        match self.recv(req)?.0 {
            Frame::Ack { rows: 1 } => Ok(()),
            Frame::Ack { rows } => {
                Err(io::Error::other(format!("insert acknowledged {rows} rows")))
            }
            Frame::Error { error } => Err(io::Error::other(error.to_string())),
            other => Err(unexpected("Ack", &other)),
        }
    }
}

/// Any displayable engine error as an `io::Error`.
pub fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn unexpected(wanted: &str, got: &Frame) -> io::Error {
    io::Error::other(format!(
        "expected {wanted}, got frame kind {:#x}",
        got.kind()
    ))
}

/// A fresh, empty directory under the benchmark's `out/`.
pub fn fresh_dir(out: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = out.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Spawns `bin` on `dir` and waits for the first reply to `probe` that
/// `ok` accepts: the time from spawn to first correct reply.
pub fn spawn_until_correct(
    bin: &Path,
    dir: &Path,
    probe: &str,
    ok: impl Fn(&Reply) -> bool,
) -> io::Result<(Hrdmd, Duration)> {
    let started = Instant::now();
    let server = Hrdmd::spawn(bin, dir)?;
    let reply = Wire::connect(server.addr())?.query(probe)?;
    let took = started.elapsed();
    if !ok(&reply) {
        return Err(io::Error::other(format!(
            "first reply after start was wrong: {probe} -> {} rows",
            reply.rows
        )));
    }
    Ok((server, took))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_read_past_a_command_name_with_spaces_and_parentheses() {
        let stat =
            "4242 (hrd md) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 37 5 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn own_status_files_are_readable() {
        assert!(vm_hwm_kib("/proc/self/status") > 0);
        // Burn a little processor time so the tick counter is not zero.
        let mut x = 0u64;
        while cpu_us("/proc/self/stat") == 0 {
            x = std::hint::black_box(x + 1);
        }
    }
}

//! The four workloads' end-to-end runs (tracing off).
//!
//! Everything here drives the system from outside: the served workloads
//! talk to the shipped `hrdmd` child over loopback with two client
//! connections (the sandbox has two cores), the paged workload calls the
//! library's public out-of-core entry point from one thread.

use crate::data::{dir_bytes, Births, DataSet, SliceCounter, TupleSpec, ERA, SPAN};
use crate::ops::{analytic_ops, Class, Expect, PointMix, ReadOp, POINT_WINDOW};
use crate::stats::{
    due_ns, five_slice_tail, grouped_median, median, median_f64, percentile, OpenSample,
};
use crate::wire::{cpu_us, fresh_dir, other, spawn_until_correct, vm_hwm_kib, Hrdmd, Reply, Wire};
use hrdm_query::{run_query_on_paged, QueryResult};
use hrdm_storage::{BufferPool, PagedDatabase};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of every served workload: the sandbox has two
/// cores, and all load comes from this one process.
pub const CLIENTS: usize = 2;
/// Requests each `point_serve` connection keeps in flight. At one, every
/// request is three thread hand-offs (client, the server's reader, its
/// worker) with nothing else runnable meanwhile, and the driver's check saw
/// the rates move by a quarter between identical runs; at eight the server
/// always has a request waiting and switches threads 2.1 times per request
/// instead of 3.3, so the rates follow the work it does per request more
/// and the VM's cost of waking a thread less.
pub const POINT_DEPTH: usize = 8;
/// The paged workload's hot region: the newest two partitions, which fit
/// the pool with room for cold faults to pass through.
pub const PAGED_HOT_FROM: i64 = ERA - 2 * SPAN;
/// How many times a run sets up; `setup_s` is the median, `recovery_s`
/// the fastest start among them.
pub const SETUPS: usize = 3;
/// How many times `ingest_mixed` kills and restarts its server on the same
/// WAL tail; `recovery_s` is the fastest.
pub const CRASHES: usize = 9;
/// The run is invalid if the open-loop generator's own p99 lateness
/// exceeds this: then the generator, not the server, fell behind.
pub const MAX_GENERATOR_LATENESS_US: u64 = 10_000;

/// Sizes. `full` is the contract's scale; `smoke` runs the same code on
/// tiny data.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub served_tuples: i64,
    pub paged_tuples: i64,
    pub grp_tuples: i64,
    /// The paged workload's fixed pool, in 8 KiB pages.
    pub pool_pages: usize,
    /// Instances of each heavy class in the analytic query set.
    pub analytic_variants: usize,
    /// `point_serve`'s open-loop rate, requests per second over both
    /// connections: about 40 % of the seed's closed-loop rate, fixed here
    /// and never re-derived at run time.
    pub open_rate: u64,
    /// The ingest client checkpoints after this many acknowledged inserts.
    pub checkpoint_every: u64,
    /// Inserts between the last checkpoint and the SIGKILL.
    pub epilogue_inserts: u64,
    pub warm_inserts: u64,
    /// Keys (warm-up included) of one `ingest_mixed` round.
    pub round_inserts: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            served_tuples: 50_000,
            paged_tuples: 150_000,
            grp_tuples: 2_000,
            pool_pages: 448,
            analytic_variants: 4,
            open_rate: 5_600,
            checkpoint_every: 1_000,
            epilogue_inserts: 2_000,
            warm_inserts: 20,
            round_inserts: 3_000,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            served_tuples: 4_000,
            paged_tuples: 12_000,
            grp_tuples: 200,
            pool_pages: 48,
            analytic_variants: 2,
            open_rate: 1_800,
            checkpoint_every: 100,
            epilogue_inserts: 200,
            warm_inserts: 20,
            round_inserts: 300,
        }
    }
}

/// Where things are and how long to measure.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// `benchmark/out`: the only place the benchmark writes.
    pub out: PathBuf,
    /// The shipped server binary, built from the root workspace.
    pub hrdmd: PathBuf,
    pub scale: Scale,
    pub seed: u64,
    /// The measurement window of one workload, in seconds.
    pub seconds: f64,
}

impl Ctx {
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn served_data(&self) -> DataSet {
        DataSet {
            seed: self.seed,
            births: Births::Skewed,
            hist: self.scale.served_tuples,
            grp: self.scale.grp_tuples,
        }
    }

    pub fn ingest_data(&self, hist: i64) -> DataSet {
        DataSet {
            seed: self.seed,
            births: Births::AppendMostly,
            hist,
            grp: 0,
        }
    }

    pub fn paged_data(&self) -> DataSet {
        DataSet {
            seed: self.seed,
            births: Births::Skewed,
            hist: self.scale.paged_tuples,
            grp: 0,
        }
    }

    /// Generates and saves `data` in a child process, so that neither the
    /// generated tuples nor the loader's database ever count towards this
    /// process's (or the server's) resident set.
    pub fn build_dir(&self, name: &str, data: DataSet) -> io::Result<PathBuf> {
        let dir = fresh_dir(&self.out, name)?;
        let status = Command::new(std::env::current_exe()?)
            .arg("__build")
            .arg(&dir)
            .args([
                data.seed.to_string(),
                format!("{:?}", data.births),
                data.hist.to_string(),
                data.grp.to_string(),
            ])
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!("data builder failed: {status}")));
        }
        Ok(dir)
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many raw samples the value summarizes.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged writes not found after the crash restart.
    pub lost_acks: u64,
    /// The generator, not the server, fell behind in the open loop.
    pub invalid: bool,
    /// The contract's metrics (end-to-end or per-layer, by run kind).
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers, printed but not part of the contract.
    pub detail: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.lost_acks == 0 && !self.invalid
    }
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    pub old: bool,
    pub variant: u32,
    /// Completion time since the phase started, ns.
    pub end_ns: u64,
    pub ns: u64,
    pub rows: u64,
    pub bytes: u64,
    pub frames: u64,
    pub ok: bool,
}

/// Samples of several clients merged into completion order.
pub fn in_completion_order(per_client: Vec<Vec<Sample>>) -> Vec<Sample> {
    let mut all: Vec<Sample> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|s| s.end_ns);
    all
}

pub fn latencies(samples: &[Sample]) -> Vec<u64> {
    samples.iter().map(|s| s.ns).collect()
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The smallest of several timings of the same thing. Interference only
/// ever adds time, so for a sub-second, one-shot duration (a start, a
/// crash recovery) the fastest repetition is the one nearest the
/// program's own cost; a median of five still moved 25 % between runs.
fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mib_from_kib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

/// Checks the reply to `op`, sent at `started`; an I/O error is a failed op.
fn checked(
    op: &ReadOp,
    result: io::Result<Reply>,
    slack: impl FnOnce() -> u64,
    started: Instant,
    epoch: Instant,
) -> Sample {
    let ns = started.elapsed().as_nanos() as u64;
    let end_ns = epoch.elapsed().as_nanos() as u64;
    let (reply, ok) = match result {
        Ok(reply) => {
            let ok = op.expect.holds_with_slack(&reply, slack());
            if !ok {
                eprintln!(
                    "benchmark: wrong reply to `{}`: {} rows, expected {:?}",
                    op.text, reply.rows, op.expect
                );
            }
            (reply, ok)
        }
        Err(e) => {
            eprintln!("benchmark: `{}` failed: {e}", op.text);
            (Reply::default(), false)
        }
    };
    Sample {
        class: op.class,
        old: op.old,
        variant: op.variant,
        end_ns,
        ns,
        rows: reply.rows,
        bytes: reply.bytes,
        frames: reply.frames,
        ok,
    }
}

/// Runs one read and checks the reply; after an I/O error the connection
/// is replaced.
fn timed_read(
    wire: &mut Wire,
    addr: &str,
    op: &ReadOp,
    slack: impl FnOnce() -> u64,
    epoch: Instant,
) -> Sample {
    let started = Instant::now();
    let result = wire.query(&op.text);
    let broken = result.is_err();
    let sample = checked(op, result, slack, started, epoch);
    if broken {
        if let Ok(fresh) = Wire::connect(addr) {
            *wire = fresh;
        }
    }
    sample
}

/// One closed-loop reader until `window` after `epoch`: it keeps `depth`
/// requests in flight on its connection and sends the next one only when
/// a reply has arrived. At depth 1 it is a caller that waits for each
/// reply; deeper, it is that many callers sharing a connection, and the
/// latency of a request includes its wait behind the ones ahead of it.
fn closed_loop_reader(
    addr: &str,
    epoch: Instant,
    window: Duration,
    depth: usize,
    mut next: impl FnMut() -> ReadOp,
) -> io::Result<Vec<Sample>> {
    let mut wire = Wire::connect(addr)?;
    let mut samples = Vec::new();
    let mut in_flight: VecDeque<(ReadOp, io::Result<u64>, Instant)> = VecDeque::new();
    loop {
        while in_flight.len() < depth && epoch.elapsed() < window {
            let op = next();
            let started = Instant::now();
            let sent = wire.send_query(&op.text);
            in_flight.push_back((op, sent, started));
        }
        let Some((op, sent, started)) = in_flight.pop_front() else {
            return Ok(samples);
        };
        let result = sent.and_then(|req| wire.recv_reply(req, |_| {}));
        let broken = result.is_err();
        samples.push(checked(&op, result, || 0, started, epoch));
        if broken {
            // Whatever else was in flight on the connection is lost with it.
            for (op, _, started) in in_flight.drain(..) {
                let lost = Err(io::Error::other("connection lost"));
                samples.push(checked(&op, lost, || 0, started, epoch));
            }
            wire = Wire::connect(addr)?;
        }
    }
}

/// `CLIENTS` closed-loop readers (see [`closed_loop_reader`]) from `epoch`
/// for `window`. `source(client)` yields that client's ops.
pub fn closed_loop_reads<S: FnMut() -> ReadOp>(
    addr: &str,
    epoch: Instant,
    window: Duration,
    depth: usize,
    source: impl Fn(usize) -> S + Sync,
) -> io::Result<Vec<Vec<Sample>>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let source = &source;
                scope.spawn(move || closed_loop_reader(addr, epoch, window, depth, source(c)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Sleeps until 150 us before `due` (ns after `epoch`), then yields in a
/// loop. A pure sleep would let both the generator's and the server's
/// processor fall idle between requests, and on this VM the wake-up from
/// idle then dominates (and triples) every latency; yielding keeps the
/// processor awake but hands it to the server whenever it is runnable.
fn wait_until(epoch: Instant, due: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 200_000 {
            std::thread::sleep(Duration::from_nanos(left - 150_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The open loop: requests are due on a fixed schedule at `rate` per
/// second, alternating over `CLIENTS` connections, whether or not earlier
/// replies have arrived. Latency runs from each request's due time.
fn open_loop_reads<S: FnMut() -> ReadOp>(
    addr: &str,
    window: Duration,
    rate: u64,
    source: impl Fn(usize) -> S + Sync,
) -> io::Result<Vec<Vec<(Sample, OpenSample)>>> {
    let total = window.as_nanos() as u64 * rate / 1_000_000_000;
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let source = &source;
                scope.spawn(move || -> io::Result<Vec<(Sample, OpenSample)>> {
                    let mut wire = Wire::connect(addr)?;
                    let mut next = source(c);
                    let mut out = Vec::new();
                    let mut free = 0;
                    for i in (c as u64..total).step_by(CLIENTS) {
                        let due = due_ns(i, rate);
                        wait_until(epoch, due);
                        let op = next();
                        let sent = epoch.elapsed().as_nanos() as u64;
                        let sample = timed_read(&mut wire, addr, &op, || 0, epoch);
                        let open = OpenSample {
                            due,
                            free,
                            sent,
                            done: sample.end_ns,
                        };
                        free = sample.end_ns;
                        out.push((sample, open));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn count_failures(samples: &[Sample], outcome: &mut Outcome) {
    outcome.attempted += samples.len() as u64;
    outcome.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

/// Per-class median latencies, as detail metrics.
fn class_medians(samples: &[Sample], prefix: &str, out: &mut Vec<Metric>) {
    let mut by_class: HashMap<Class, Vec<u64>> = HashMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.ns);
    }
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    for (class, ns) in classes {
        out.push(Metric::new(
            format!("{prefix}.{}_p50_us", class.name()),
            us(median(&ns)),
            "us",
            ns.len() as u64,
        ));
    }
}

/// Median latency of the ops the generator labelled as touching old
/// history, and of the rest.
pub fn old_and_recent_p50_us(samples: &[Sample]) -> ((f64, u64), (f64, u64)) {
    let pick = |old: bool| {
        let ns: Vec<u64> = samples
            .iter()
            .filter(|s| s.old == old)
            .map(|s| s.ns)
            .collect();
        (us(median(&ns)), ns.len() as u64)
    };
    (pick(true), pick(false))
}

/// A served data directory with its server: what `point_serve` and
/// `analytic_stream` set up.
pub struct Served {
    pub server: Hrdmd,
    pub dir: PathBuf,
    pub data: DataSet,
    pub counter: SliceCounter,
    pub disk_ratio: f64,
}

/// Builds the checkpointed served directory, starts `hrdmd` on it and
/// waits for the first correct reply. Returns the start-to-correct time.
pub fn start_served(ctx: &Ctx, name: &str) -> io::Result<(Served, Duration)> {
    let data = ctx.served_data();
    let dir = ctx.build_dir(name, data)?;
    let counter = SliceCounter::build(data.specs());
    let disk_ratio = dir_bytes(&dir)? as f64 / data.user_bytes() as f64;
    let probe = PointMix::new(data, &counter, u64::MAX).key();
    // Start it three times and keep the fastest start-to-correct time:
    // the start the sandbox disturbed least.
    let mut starts = Vec::new();
    let mut running = None;
    for _ in 0..3 {
        drop(running.take());
        let (server, took) =
            spawn_until_correct(&ctx.hrdmd, &dir, &probe.text, |r| probe.expect.holds(r))?;
        starts.push(took.as_secs_f64());
        running = Some(server);
    }
    let server = running.expect("started at least once");
    let took = Duration::from_secs_f64(fastest(&starts));
    Ok((
        Served {
            server,
            dir,
            data,
            counter,
            disk_ratio,
        },
        took,
    ))
}

/// Repeats `setup` [`SETUPS`] times, dropping each result before the
/// next, and keeps the last. Returns it with every set-up's wall time and
/// start-to-correct time.
fn set_up_repeatedly<T>(
    mut setup: impl FnMut() -> io::Result<(T, Duration)>,
) -> io::Result<(T, Vec<f64>, Vec<f64>)> {
    let mut setups = Vec::new();
    let mut recoveries = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        let (value, recovery) = setup()?;
        setups.push(started.elapsed().as_secs_f64());
        recoveries.push(recovery.as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("SETUPS is positive"), setups, recoveries))
}

/// One stretch of a measurement window: a half-second slice of it, one
/// op-count-defined round, or (where neither applies) the whole of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    pub ops_per_s: f64,
    /// The typical latency of the stretch's ops ([`grouped_median`]), us.
    pub op_us: f64,
    /// Processor time the system under test used per operation, us.
    pub cpu_us_per_op: f64,
}

impl Part {
    /// `samples` completed over `secs`, during which the system under test
    /// used `cpu_us` of processor time.
    pub fn of(samples: &[Sample], secs: f64, cpu_us: u64) -> Part {
        let grouped: Vec<_> = samples
            .iter()
            .map(|s| ((s.class, s.old, s.variant), s.ns))
            .collect();
        Part {
            ops_per_s: samples.len() as f64 / secs,
            op_us: grouped_median(&grouped) / 1e3,
            cpu_us_per_op: cpu_us as f64 / samples.len().max(1) as f64,
        }
    }
}

/// `(ns since epoch, server processor time in us)`, read at `epoch` and at
/// the end of each of `slices` equal parts of `window`.
fn cpu_marks(server: &Hrdmd, epoch: Instant, window: Duration, slices: u32) -> Vec<(u64, u64)> {
    (0..=slices)
        .map(|i| {
            std::thread::sleep((window * i / slices).saturating_sub(epoch.elapsed()));
            (epoch.elapsed().as_nanos() as u64, server.cpu_us())
        })
        .collect()
}

/// Cuts `in_order` (samples in completion order) at `marks` into one
/// [`Part`] per slice; a slice in which nothing completed is left out.
pub fn slice_parts(in_order: &[Sample], marks: &[(u64, u64)]) -> Vec<Part> {
    marks
        .windows(2)
        .filter_map(|pair| {
            let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
            let lo = in_order.partition_point(|s| s.end_ns < from);
            let hi = in_order.partition_point(|s| s.end_ns < to);
            (hi > lo).then(|| {
                Part::of(
                    &in_order[lo..hi],
                    (to - from) as f64 / 1e9,
                    cpu_to - cpu_from,
                )
            })
        })
        .collect()
}

/// The quarter of `parts` (at least one) in which the system got through
/// most operations. The sandbox's interference comes in bursts of a second
/// or so and only ever takes throughput away, so these are the parts it
/// disturbed least; every part does the same work, so they leave out
/// nothing the program itself does.
pub fn calmest_quarter(parts: &[Part]) -> Vec<Part> {
    let mut by_rate = parts.to_vec();
    by_rate.sort_by(|a, b| b.ops_per_s.total_cmp(&a.ops_per_s));
    by_rate.truncate(parts.len().div_ceil(4));
    by_rate
}

/// The numbers every workload reports, whatever its primary operation is.
struct Common<'a> {
    /// The measurement window in parts. Each of the three rates is the
    /// median over [`calmest_quarter`] of them.
    parts: &'a [Part],
    /// Primary operations measured.
    ops: u64,
    recoveries: &'a [f64],
    peak_rss_kib: u64,
    disk_ratio: f64,
    setups: &'a [f64],
}

impl Common<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let calmest = calmest_quarter(self.parts);
        let over_parts =
            |f: fn(&Part) -> f64| median_f64(&calmest.iter().map(f).collect::<Vec<_>>());
        let values = [
            ("ops_per_s", over_parts(|p| p.ops_per_s), self.ops),
            ("op_p50_us", over_parts(|p| p.op_us), self.ops),
            ("cpu_us_per_op", over_parts(|p| p.cpu_us_per_op), self.ops),
            (
                "recovery_s",
                fastest(self.recoveries),
                self.recoveries.len() as u64,
            ),
            ("peak_rss_mib", mib_from_kib(self.peak_rss_kib), 1),
            ("disk_bytes_per_user_byte", self.disk_ratio, 1),
            ("setup_s", median_f64(self.setups), self.setups.len() as u64),
        ];
        // Units come from the one table `BENCHMARK.json` is checked against.
        crate::contract::END_TO_END
            .iter()
            .map(|def| {
                let (_, value, samples) = values
                    .iter()
                    .find(|(name, ..)| *name == def.name)
                    .expect("every end-to-end metric is measured");
                Metric::new(def.name, *value, def.unit, *samples)
            })
            .collect()
    }
}

/// `point_serve`: read-only point reads against a checkpointed directory.
/// Phase A (70 % of the window) is closed-loop and gives the bounded
/// numbers; phase B (30 %) is open-loop at the fixed rate, and its
/// latencies from the due time are printed beside them.
pub fn point_serve(ctx: &Ctx) -> io::Result<Outcome> {
    let (served, setups, recoveries) = set_up_repeatedly(|| {
        let (served, took) = start_served(ctx, "point_serve")?;
        // Warm-up: both connections run the mix until caches are filled.
        let mix = |c: usize| {
            let mut m = PointMix::new(served.data, &served.counter, 100 + c as u64);
            move || m.next_op()
        };
        let warm = Duration::from_millis(300);
        closed_loop_reads(served.server.addr(), Instant::now(), warm, POINT_DEPTH, mix)?;
        Ok((served, took))
    })?;
    let addr = served.server.addr();
    let mut outcome = Outcome::default();

    let window_a = ctx.window(0.7);
    // Half-second slices: short enough that a burst of interference spoils
    // few of them, long enough for some 7 000 requests and 70 ticks of the
    // server's processor-time counter each.
    let slices = ((window_a.as_secs_f64() * 2.0).round() as u32).max(1);
    let epoch = Instant::now();
    let (closed, marks) = std::thread::scope(|scope| {
        let marks = scope.spawn(|| cpu_marks(&served.server, epoch, window_a, slices));
        let closed = closed_loop_reads(addr, epoch, window_a, POINT_DEPTH, |c| {
            let mut m = PointMix::new(served.data, &served.counter, c as u64);
            move || m.next_op()
        });
        (closed, marks.join().expect("sampler thread panicked"))
    });
    let closed = in_completion_order(closed?);
    let parts = slice_parts(&closed, &marks);
    count_failures(&closed, &mut outcome);

    let open = open_loop_reads(addr, ctx.window(0.3), ctx.scale.open_rate, |c| {
        let mut m = PointMix::new(served.data, &served.counter, 10 + c as u64);
        move || m.next_op()
    })?;
    let mut open: Vec<(Sample, OpenSample)> = open.into_iter().flatten().collect();
    open.sort_by_key(|(s, _)| s.end_ns);
    let open_samples: Vec<Sample> = open.iter().map(|(s, _)| *s).collect();
    count_failures(&open_samples, &mut outcome);
    // Open-loop latency runs from the due time, not from the send.
    let timed_from_due: Vec<Sample> = open
        .iter()
        .map(|(s, o)| Sample {
            ns: o.latency(),
            ..*s
        })
        .collect();
    let from_due = latencies(&timed_from_due);
    let mut lateness: Vec<u64> = open.iter().map(|(_, o)| o.lateness()).collect();
    lateness.sort_unstable();
    let late_p99_us = percentile(&lateness, 0.99) / 1_000;
    outcome.invalid = late_p99_us > MAX_GENERATOR_LATENESS_US;

    outcome.metrics = Common {
        parts: &parts,
        ops: closed.len() as u64,
        recoveries: &recoveries,
        peak_rss_kib: served.server.vm_hwm_kib(),
        disk_ratio: served.disk_ratio,
        setups: &setups,
    }
    .metrics();
    let ops_per_s = closed.len() as f64 / window_a.as_secs_f64();
    let n = from_due.len() as u64;
    outcome.detail = vec![
        Metric::new("read_qps", ops_per_s, "1/s", closed.len() as u64),
        Metric::new("read_p50_us", us(median(&from_due)), "us", n),
        Metric::new(
            "open_loop_grouped_p50_us",
            grouped_median(
                &timed_from_due
                    .iter()
                    .map(|s| ((s.class, s.old), s.ns))
                    .collect::<Vec<_>>(),
            ) / 1e3,
            "us",
            n,
        ),
        Metric::new("read_p90_us", us(five_slice_tail(&from_due, 0.90)), "us", n),
        Metric::new("read_p95_us", us(five_slice_tail(&from_due, 0.95)), "us", n),
        Metric::new("read_p99_us", us(five_slice_tail(&from_due, 0.99)), "us", n),
        Metric::new(
            "closed_loop_p95_us",
            us(five_slice_tail(&latencies(&closed), 0.95)),
            "us",
            closed.len() as u64,
        ),
        Metric::new(
            "closed_loop_p50_us",
            us(median(&latencies(&closed))),
            "us",
            closed.len() as u64,
        ),
        Metric::new("open_loop_rate", ctx.scale.open_rate as f64, "1/s", n),
        Metric::new(
            "generator_late_p50_us",
            us(percentile(&lateness, 0.5)),
            "us",
            n,
        ),
        Metric::new(
            "generator_late_p99_us",
            us(percentile(&lateness, 0.99)),
            "us",
            n,
        ),
    ];
    class_medians(&open_samples, "open", &mut outcome.detail);
    outcome.notes.push(format!(
        "phase A: {CLIENTS} closed-loop connections, {POINT_DEPTH} requests in flight on each, for {:.1} s in {} slices; phase B: open loop at {}/s over {CLIENTS} connections, latency from due time; generator {}",
        window_a.as_secs_f64(),
        parts.len(),
        ctx.scale.open_rate,
        if outcome.invalid { "FELL BEHIND: run invalid" } else { "kept up" }
    ));
    drop(served);
    Ok(outcome)
}

/// The analytic query set for `data`, with its expectations.
pub fn analytic_set(ctx: &Ctx, data: DataSet, counter: &SliceCounter) -> Vec<ReadOp> {
    let specs: Vec<TupleSpec> = data.specs().collect();
    analytic_ops(data, &specs, counter, ctx.scale.analytic_variants)
}

/// Each client cycles the whole set, starting half a set apart so the two
/// connections run different classes at any moment.
pub fn cycling(ops: &[ReadOp], client: usize) -> impl FnMut() -> ReadOp + '_ {
    let mut at = client * ops.len() / CLIENTS;
    move || {
        let op = ops[at % ops.len()].clone();
        at += 1;
        op
    }
}

/// `analytic_stream`: two closed-loop clients cycling the heavy classes
/// against the same kind of server.
pub fn analytic_stream(ctx: &Ctx) -> io::Result<Outcome> {
    let ((served, ops), setups, recoveries) = set_up_repeatedly(|| {
        let (served, took) = start_served(ctx, "analytic_stream")?;
        let ops = analytic_set(ctx, served.data, &served.counter);
        // Warm-up: the two connections run the whole set once between them.
        let warm = ops.len().div_ceil(CLIENTS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (ops, addr) = (&ops, served.server.addr());
                    scope.spawn(move || -> io::Result<()> {
                        let mut wire = Wire::connect(addr)?;
                        let mut next = cycling(ops, c);
                        for _ in 0..warm {
                            wire.query(&next().text)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        })?;
        Ok(((served, ops), took))
    })?;
    let mut outcome = Outcome::default();
    let cpu_before = served.server.cpu_us();
    let started = Instant::now();
    let samples = in_completion_order(closed_loop_reads(
        served.server.addr(),
        started,
        ctx.window(1.0),
        1,
        |c| cycling(&ops, c),
    )?);
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_us = served.server.cpu_us() - cpu_before;
    count_failures(&samples, &mut outcome);
    let lat = latencies(&samples);
    outcome.metrics = Common {
        // One part: a slice would hold a handful of queries of unlike cost.
        parts: &[Part::of(&samples, elapsed, cpu_us)],
        ops: samples.len() as u64,
        recoveries: &recoveries,
        peak_rss_kib: served.server.vm_hwm_kib(),
        disk_ratio: served.disk_ratio,
        setups: &setups,
    }
    .metrics();
    let rows: u64 = samples.iter().map(|s| s.rows).sum();
    let n = samples.len() as u64;
    outcome.detail = vec![
        Metric::new("rows_per_s", rows as f64 / elapsed, "1/s", rows),
        Metric::new("query_p50_ms", us(median(&lat)) / 1e3, "ms", n),
        Metric::new(
            "query_p90_ms",
            us(five_slice_tail(&lat, 0.90)) / 1e3,
            "ms",
            n,
        ),
        Metric::new(
            "bytes_in_per_row",
            samples.iter().map(|s| s.bytes).sum::<u64>() as f64 / rows.max(1) as f64,
            "B",
            rows,
        ),
        Metric::new(
            "frames_in_per_query",
            samples.iter().map(|s| s.frames).sum::<u64>() as f64 / n.max(1) as f64,
            "count",
            n,
        ),
    ];
    class_medians(&samples, "class", &mut outcome.detail);
    outcome.notes.push(format!(
        "{CLIENTS} closed-loop clients cycling {} queries ({} classes x {} variants); tail is p90 ({} samples: too few for p99)",
        ops.len(),
        Class::HEAVY.len(),
        ctx.scale.analytic_variants,
        n
    ));
    drop(served);
    Ok(outcome)
}

/// Shared state of the ingest writers.
pub struct Ingest {
    seed: u64,
    /// The next key to insert; keys are issued in order.
    next_key: AtomicI64,
    /// Inserts acknowledged so far (drives the op-count checkpoints).
    acked: AtomicU64,
    /// Writer 0's in-flight key: every key below it has been acknowledged
    /// once writer 0 is the only writer.
    in_flight: AtomicI64,
    /// Writers stop once every key below this has been issued.
    pub end_key: i64,
    checkpoint_every: u64,
    /// The server's directory and `/proc/<pid>/status`, both read after
    /// each op-count checkpoint.
    dir: PathBuf,
    status_path: String,
    /// The first tuples of the stream, generated during set-up (later
    /// keys are generated as they are sent).
    pregenerated: Vec<hrdm_core::Tuple>,
}

impl Ingest {
    /// A stream starting at key 0 against `server` on `dir`, with the
    /// first `pregenerate` tuples built now.
    pub fn new(ctx: &Ctx, dir: &Path, server: &Hrdmd, pregenerate: i64) -> Ingest {
        let scheme = crate::data::hist_scheme();
        Ingest {
            pregenerated: ctx
                .ingest_data(pregenerate)
                .specs()
                .map(|s| s.to_tuple(&scheme))
                .collect(),
            seed: ctx.seed,
            next_key: AtomicI64::new(0),
            acked: AtomicU64::new(0),
            in_flight: AtomicI64::new(0),
            end_key: i64::MAX,
            checkpoint_every: ctx.scale.checkpoint_every,
            dir: dir.to_path_buf(),
            status_path: server.status_path(),
        }
    }

    /// Keys issued so far.
    pub fn issued(&self) -> i64 {
        self.next_key.load(Ordering::SeqCst)
    }
}

#[derive(Default)]
pub struct WriterLog {
    pub samples: Vec<Sample>,
    acked_keys: Vec<i64>,
    /// `(start, end)` of each checkpoint this writer issued, ns.
    checkpoints: Vec<(u64, u64)>,
    /// `(acknowledged inserts, directory bytes, server VmHWM in KiB)` right
    /// after each of them. Op-count-defined, so they repeat whatever the
    /// insert rate was.
    after_checkpoint: Vec<(u64, u64, u64)>,
    failed: u64,
}

/// One closed-loop writer: inserts the next key, waits for the durable
/// ack, and checkpoints whenever the global ack count crosses a multiple
/// of `checkpoint_every`. Stops at `deadline`, after `limit` inserts, or
/// when the stream's keys up to `end_key` have all been issued.
fn writer(
    shared: &Ingest,
    addr: &str,
    writer_id: usize,
    epoch: Instant,
    deadline: Option<Duration>,
    limit: u64,
) -> io::Result<WriterLog> {
    let scheme = crate::data::hist_scheme();
    let mut wire = Wire::connect(addr)?;
    let mut control =
        hrdm_net::Client::connect_as(addr, "hrdm-benchmark-control").map_err(other)?;
    let mut log = WriterLog::default();
    let mut done = 0;
    while done < limit && deadline.is_none_or(|d| epoch.elapsed() < d) {
        let issue = |k: i64| (k < shared.end_key).then_some(k + 1);
        let Ok(key) = shared
            .next_key
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, issue)
        else {
            break;
        };
        if writer_id == 0 {
            shared.in_flight.store(key, Ordering::SeqCst);
        }
        let spec = TupleSpec::hist(shared.seed, Births::AppendMostly, key);
        let tuple = match shared.pregenerated.get(key as usize) {
            Some(t) => t.clone(),
            None => spec.to_tuple(&scheme),
        };
        let started = Instant::now();
        let result = wire.insert("hist", tuple);
        let ns = started.elapsed().as_nanos() as u64;
        let ok = result.is_ok();
        if let Err(e) = result {
            eprintln!("benchmark: insert of key {key} failed: {e}");
            log.failed += 1;
            wire = Wire::connect(addr)?;
        } else {
            log.acked_keys.push(key);
        }
        log.samples.push(Sample {
            class: Class::Key,
            old: spec.is_old(),
            variant: 0,
            end_ns: epoch.elapsed().as_nanos() as u64,
            ns,
            rows: 1,
            bytes: 0,
            frames: 1,
            ok,
        });
        done += 1;
        let acked = shared.acked.fetch_add(u64::from(ok), Ordering::SeqCst) + 1;
        if ok && acked.is_multiple_of(shared.checkpoint_every) {
            let from = epoch.elapsed().as_nanos() as u64;
            control.checkpoint().map_err(other)?;
            log.checkpoints
                .push((from, epoch.elapsed().as_nanos() as u64));
            log.after_checkpoint.push((
                acked,
                dir_bytes(&shared.dir)?,
                vm_hwm_kib(&shared.status_path),
            ));
        }
    }
    if writer_id == 0 {
        shared
            .in_flight
            .store(shared.next_key.load(Ordering::SeqCst), Ordering::SeqCst);
    }
    Ok(log)
}

/// [`CLIENTS`] closed-loop writers until `deadline` or the stream's
/// `end_key`; returns their logs and the seconds they took.
pub fn closed_loop_writers(
    shared: &Ingest,
    addr: &str,
    deadline: Option<Duration>,
) -> io::Result<(Vec<WriterLog>, f64)> {
    let epoch = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|w| scope.spawn(move || writer(shared, addr, w, epoch, deadline, u64::MAX)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((logs, epoch.elapsed().as_secs_f64()))
}

/// What `ingest_mixed` sets up: a server attached to an empty directory
/// and the insert stream, a few warm-up inserts in.
struct Attached {
    server: Hrdmd,
    dir: PathBuf,
    shared: Ingest,
    acked_keys: Vec<i64>,
}

/// `ingest_mixed`: durable append-mostly inserts with op-count
/// checkpoints, reads under writes, then a SIGKILL and a full re-read.
pub fn ingest_mixed(ctx: &Ctx) -> io::Result<Outcome> {
    let scale = ctx.scale;
    let empty_probe = "SELECT-WHEN (K = 0) (hist)";
    let set_up = || -> io::Result<(Attached, Duration)> {
        // "Empty": both schemes and the partition policy, no tuples.
        let dir = ctx.build_dir("ingest_mixed", ctx.ingest_data(0))?;
        let (server, took) = spawn_until_correct(&ctx.hrdmd, &dir, empty_probe, |r| r.rows == 0)?;
        let mut shared = Ingest::new(ctx, &dir, &server, scale.round_inserts as i64);
        shared.end_key = scale.round_inserts as i64;
        let warm = writer(
            &shared,
            server.addr(),
            0,
            Instant::now(),
            None,
            scale.warm_inserts,
        )?;
        if warm.failed > 0 {
            return Err(io::Error::other("warm-up inserts failed"));
        }
        let acked_keys = warm.acked_keys;
        Ok((
            Attached {
                server,
                dir,
                shared,
                acked_keys,
            },
            took,
        ))
    };
    let (mut current, mut setups, _) = set_up_repeatedly(&set_up)?;
    let mut outcome = Outcome::default();

    // Phase A: two closed-loop writers, in rounds. An insert costs more
    // the more the relation holds, so a window of seconds would measure
    // how far the run got; a round is the same `round_inserts` keys into a
    // fresh empty directory every time, and rounds repeat until phase A's
    // share of the window is used.
    let window_a = ctx.window(0.75).as_secs_f64();
    let mut measured = 0.0;
    let mut rounds: Vec<Part> = Vec::new();
    let mut write_lat: Vec<u64> = Vec::new();
    let mut stalled: Vec<u64> = Vec::new();
    let mut checkpoint_ms: Vec<f64> = Vec::new();
    // Directory bytes and the server's resident-set peak right after the
    // checkpoint that ends each round: nothing is in flight there, so the
    // data they describe is defined by an op count alone.
    let mut round_ends: Vec<(u64, u64)> = Vec::new();
    loop {
        let cpu_before = current.server.cpu_us();
        let (logs, elapsed) = closed_loop_writers(&current.shared, current.server.addr(), None)?;
        let cpu_us = current.server.cpu_us() - cpu_before;
        let mut checkpoints: Vec<(u64, u64)> = Vec::new();
        let mut samples = Vec::new();
        for log in logs {
            outcome.failed += log.failed;
            current.acked_keys.extend(log.acked_keys);
            checkpoints.extend(log.checkpoints);
            round_ends.extend(
                log.after_checkpoint
                    .iter()
                    .filter(|&&(acked, ..)| acked == scale.round_inserts)
                    .map(|&(_, bytes, kib)| (bytes, kib)),
            );
            samples.push(log.samples);
        }
        let writes = in_completion_order(samples);
        outcome.attempted += writes.len() as u64;
        rounds.push(Part::of(&writes, elapsed, cpu_us));
        write_lat.extend(latencies(&writes));
        // Writes that were in flight while a checkpoint ran: the stall.
        stalled.extend(
            writes
                .iter()
                .filter(|s| {
                    let start = s.end_ns - s.ns;
                    checkpoints
                        .iter()
                        .any(|&(from, to)| start < to && s.end_ns > from)
                })
                .map(|s| s.ns),
        );
        checkpoint_ms.extend(checkpoints.iter().map(|&(a, b)| (b - a) as f64 / 1e6));
        measured += elapsed;
        if measured >= window_a {
            break;
        }
        // The old server must be gone before its directory is rebuilt.
        // Every round's set-up is one more sample of `setup_s`.
        drop(current);
        let started = Instant::now();
        current = set_up()?.0;
        setups.push(started.elapsed().as_secs_f64());
    }
    let Attached {
        server,
        dir,
        mut shared,
        mut acked_keys,
    } = current;
    shared.end_key = i64::MAX;
    let addr = server.addr().to_string();
    let ops_per_s = write_lat.len() as f64 / measured;

    // Phase B: one writer, one reader issuing the point mix on what has
    // been acknowledged.
    let window_b = ctx.window(0.25);
    let base = shared.next_key.load(Ordering::SeqCst);
    let data_b = ctx.ingest_data(base);
    let counter = SliceCounter::build(
        acked_keys
            .iter()
            .map(|&k| TupleSpec::hist(ctx.seed, Births::AppendMostly, k)),
    );
    let epoch_b = Instant::now();
    let (log_b, reads) = std::thread::scope(|scope| {
        let (shared, addr) = (&shared, addr.as_str());
        let w = scope.spawn(move || writer(shared, addr, 0, epoch_b, Some(window_b), u64::MAX));
        let counter = &counter;
        let r = scope.spawn(move || -> io::Result<Vec<Sample>> {
            let mut wire = Wire::connect(addr)?;
            let mut mix = PointMix::new(data_b, counter, 20);
            let mut samples = Vec::new();
            while epoch_b.elapsed() < window_b {
                // Only keys the writer has been acknowledged for.
                mix.keys = shared.in_flight.load(Ordering::SeqCst).max(base);
                let op = mix.next_op();
                let slack = || (shared.next_key.load(Ordering::SeqCst) - base) as u64;
                samples.push(timed_read(&mut wire, addr, &op, slack, epoch_b));
            }
            Ok(samples)
        });
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let (log_b, reads) = (log_b?, reads?);
    outcome.failed += log_b.failed;
    outcome.attempted += log_b.samples.len() as u64;
    acked_keys.extend(log_b.acked_keys);
    checkpoint_ms.extend(log_b.checkpoints.iter().map(|&(a, b)| (b - a) as f64 / 1e6));
    count_failures(&reads, &mut outcome);
    let read_lat = latencies(&reads);

    // Epilogue, op-count-defined: checkpoint, then exactly
    // `epilogue_inserts` more, so the WAL tail a restart replays repeats.
    let mut control =
        hrdm_net::Client::connect_as(addr.as_str(), "hrdm-benchmark-control").map_err(other)?;
    let from = Instant::now();
    control.checkpoint().map_err(other)?;
    let last_checkpoint_ms = from.elapsed().as_secs_f64() * 1e3;
    // A run in which no round reached its last checkpoint falls back to
    // the checkpoint above and the peak before the kill.
    let round_bytes: Vec<f64> = round_ends.iter().map(|&(bytes, _)| bytes as f64).collect();
    let round_kib: Vec<f64> = round_ends.iter().map(|&(_, kib)| kib as f64).collect();
    let (disk_tuples, disk) = if round_ends.is_empty() {
        (acked_keys.len() as u64, dir_bytes(&dir)? as f64)
    } else {
        (scale.round_inserts, median_f64(&round_bytes))
    };
    let user_bytes = ctx.ingest_data(disk_tuples as i64).user_bytes();
    let tail = Ingest {
        checkpoint_every: u64::MAX,
        next_key: AtomicI64::new(shared.next_key.load(Ordering::SeqCst)),
        ..Ingest::new(ctx, &dir, &server, 0)
    };
    let log_e = writer(
        &tail,
        &addr,
        0,
        Instant::now(),
        None,
        scale.epilogue_inserts,
    )?;
    outcome.failed += log_e.failed;
    outcome.attempted += log_e.samples.len() as u64;
    acked_keys.extend(log_e.acked_keys);
    let final_rss_kib = server.vm_hwm_kib();
    let peak_rss_kib = if round_ends.is_empty() {
        final_rss_kib
    } else {
        median_f64(&round_kib) as u64
    };
    drop(control);

    // Crash and restart: every acknowledged key must come back. The last
    // acknowledged key sits in the WAL tail, so a correct first reply
    // proves the replay ran.
    let last = *acked_keys
        .last()
        .ok_or_else(|| io::Error::other("nothing was acknowledged"))?;
    let last_spec = TupleSpec::hist(ctx.seed, Births::AppendMostly, last);
    let probe = format!("SELECT-WHEN (K = {last}) (hist)");
    let expect = Expect::Exact {
        key: last,
        runs: last_spec.runs,
    };
    let mut server = server;
    let mut recoveries = Vec::new();
    for _ in 0..CRASHES {
        server.kill();
        let (restarted, took) = spawn_until_correct(&ctx.hrdmd, &dir, &probe, |r| expect.holds(r))?;
        recoveries.push(took.as_secs_f64());
        server = restarted;
    }
    let mut found: HashMap<i64, hrdm_time::Lifespan> = HashMap::with_capacity(acked_keys.len());
    let k = hrdm_core::Attribute::new("K");
    let mut keep = |t: &hrdm_core::Tuple| {
        if let Some(hrdm_core::Value::Int(key)) = t.lifespan().first().and_then(|at| t.at(&k, at)) {
            found.insert(*key, t.lifespan().clone());
        }
    };
    let mut wire = Wire::connect(server.addr())?;
    let all = wire.query_each("SELECT-WHEN (K >= 0) (hist)", &mut keep)?;
    if let Some(first) = &all.first {
        keep(first);
    }
    outcome.attempted += acked_keys.len() as u64;
    for &key in &acked_keys {
        let want = TupleSpec::hist(ctx.seed, Births::AppendMostly, key).lifespan();
        if found.get(&key) != Some(&want) {
            outcome.lost_acks += 1;
        }
    }
    drop(wire);
    server.kill();

    outcome.metrics = Common {
        parts: &rounds,
        ops: write_lat.len() as u64,
        recoveries: &recoveries,
        peak_rss_kib,
        disk_ratio: disk / user_bytes as f64,
        setups: &setups,
    }
    .metrics();
    let n = write_lat.len() as u64;
    outcome.detail = vec![
        Metric::new("write_ops_per_s", ops_per_s, "1/s", n),
        Metric::new("write_p50_us", us(median(&write_lat)), "us", n),
        Metric::new(
            "write_p99_us",
            us(five_slice_tail(&write_lat, 0.99)),
            "us",
            n,
        ),
        Metric::new(
            "checkpoint_p50_ms",
            median_f64(&checkpoint_ms),
            "ms",
            checkpoint_ms.len() as u64,
        ),
        Metric::new("last_checkpoint_ms", last_checkpoint_ms, "ms", 1),
        Metric::new(
            "peak_rss_before_kill_mib",
            mib_from_kib(final_rss_kib),
            "MiB",
            1,
        ),
        Metric::new("disk_sample_tuples", disk_tuples as f64, "count", 1),
        Metric::new(
            "write_stall_p99_us",
            us(five_slice_tail(&stalled, 0.99)),
            "us",
            stalled.len() as u64,
        ),
        Metric::new(
            "reads_under_writes_qps",
            reads.len() as f64 / window_b.as_secs_f64(),
            "1/s",
            reads.len() as u64,
        ),
        Metric::new(
            "read_p50_us",
            us(median(&read_lat)),
            "us",
            read_lat.len() as u64,
        ),
        Metric::new(
            "read_p99_us",
            us(five_slice_tail(&read_lat, 0.99)),
            "us",
            read_lat.len() as u64,
        ),
        Metric::new(
            "writes_under_reads_p50_us",
            us(median(&latencies(&log_b.samples))),
            "us",
            log_b.samples.len() as u64,
        ),
        Metric::new(
            "acknowledged_writes",
            acked_keys.len() as f64,
            "count",
            acked_keys.len() as u64,
        ),
        Metric::new("rows_after_restart", all.rows as f64, "count", all.rows),
        Metric::new(
            "lost_acknowledged_writes",
            outcome.lost_acks as f64,
            "count",
            acked_keys.len() as u64,
        ),
    ];
    outcome.notes.push(format!(
        "flush policy: hrdmd default, every ack follows a WAL fsync (group commit); phase A: {CLIENTS} closed-loop writers, {} rounds of {} inserts into an empty directory, {:.1} s; phase B: 1 writer + 1 closed-loop reader {:.1} s; checkpoint every {} acks; {} inserts after the last checkpoint, then SIGKILL x{CRASHES}",
        rounds.len(),
        scale.round_inserts,
        measured,
        window_b.as_secs_f64(),
        scale.checkpoint_every,
        scale.epilogue_inserts
    ));
    Ok(outcome)
}

/// What `paged_window` sets up: the saved directory opened out-of-core
/// under the fixed pool.
pub struct Paged {
    pub db: PagedDatabase,
    pub pool: Arc<BufferPool>,
    pub dir: PathBuf,
    pub data: DataSet,
    pub counter: SliceCounter,
}

pub fn reply_of(result: QueryResult) -> Reply {
    match result {
        QueryResult::Relation(r) => Reply {
            rows: r.len() as u64,
            first: r.tuples().first().cloned(),
            ..Reply::default()
        },
        QueryResult::Lifespan(l) => Reply {
            lifespan: Some(l),
            ..Reply::default()
        },
        QueryResult::Function(f) => Reply {
            function: Some(f),
            ..Reply::default()
        },
    }
}

/// One in-process read through the out-of-core entry point.
pub fn paged_read(db: &PagedDatabase, op: &ReadOp, epoch: Instant) -> Sample {
    let started = Instant::now();
    let result = run_query_on_paged(&op.text, db);
    let ns = started.elapsed().as_nanos() as u64;
    let (rows, ok) = match result {
        Ok(result) => {
            let reply = reply_of(result);
            (reply.rows, op.expect.holds(&reply))
        }
        Err(e) => {
            eprintln!("benchmark: `{}` failed: {e}", op.text);
            (0, false)
        }
    };
    if !ok {
        eprintln!(
            "benchmark: wrong reply to `{}`: {rows} rows, expected {:?}",
            op.text, op.expect
        );
    }
    Sample {
        class: op.class,
        old: op.old,
        variant: op.variant,
        end_ns: epoch.elapsed().as_nanos() as u64,
        ns,
        rows,
        bytes: 0,
        frames: 0,
        ok,
    }
}

/// Opens `dir` under a fresh pool of the fixed size and answers one fixed
/// window: open to first correct reply.
fn open_paged(
    dir: &Path,
    pool_pages: usize,
    probe: &ReadOp,
) -> io::Result<(PagedDatabase, Arc<BufferPool>, Duration)> {
    let started = Instant::now();
    let pool = BufferPool::new(pool_pages);
    let db = PagedDatabase::open_with_pool(dir, Arc::clone(&pool)).map_err(other)?;
    let sample = paged_read(&db, probe, started);
    let took = started.elapsed();
    if !sample.ok {
        return Err(io::Error::other("first paged reply was wrong"));
    }
    Ok((db, pool, took))
}

pub fn start_paged(ctx: &Ctx) -> io::Result<(Paged, Duration)> {
    let data = ctx.paged_data();
    let dir = ctx.build_dir("paged_window", data)?;
    let counter = SliceCounter::build(data.specs());
    // Open-to-first-reply is a few ms, so take it fifteen times (a fresh
    // pool each) and keep the fastest. The first window is the same on
    // every seed (the middle of the newest partition), so the seed changes
    // the data under it, not how much of the directory it touches.
    let t = ERA - SPAN / 2;
    let probe = ReadOp {
        class: Class::Slice,
        old: false,
        variant: 0,
        text: format!("TIMESLICE [{t}..{}] (hist)", t + POINT_WINDOW),
        expect: Expect::Rows(counter.overlapping(t, t + POINT_WINDOW)),
    };
    let mut last = None;
    let mut times = Vec::new();
    for _ in 0..15 {
        drop(last.take());
        let (db, pool, took) = open_paged(&dir, ctx.scale.pool_pages, &probe)?;
        times.push(took.as_secs_f64());
        last = Some((db, pool));
    }
    let (db, pool) = last.expect("opened at least once");
    let took = Duration::from_secs_f64(fastest(&times));
    Ok((
        Paged {
            db,
            pool,
            dir,
            data,
            counter,
        },
        took,
    ))
}

/// `paged_window`: selective TIMESLICE windows, one thread, in process,
/// through `run_query_on_paged` under a pool several times smaller than
/// the data. 80 % of windows fall in the newest two partitions.
pub fn paged_window(ctx: &Ctx) -> io::Result<Outcome> {
    let warm_ops = 30;
    let (paged, setups, recoveries) = set_up_repeatedly(|| {
        let (paged, took) = start_paged(ctx)?;
        let mut mix = PointMix::new(paged.data, &paged.counter, 100).with_hot_from(PAGED_HOT_FROM);
        let epoch = Instant::now();
        for _ in 0..warm_ops {
            if !paged_read(&paged.db, &mix.slice(), epoch).ok {
                return Err(io::Error::other("paged warm-up read was wrong"));
            }
        }
        Ok((paged, took))
    })?;
    let mut outcome = Outcome::default();
    let window = ctx.window(1.0);
    let before = paged.pool.stats();
    let mut mix = PointMix::new(paged.data, &paged.counter, 0).with_hot_from(PAGED_HOT_FROM);
    let cpu_before = cpu_us("/proc/self/stat");
    let epoch = Instant::now();
    let mut samples = Vec::new();
    while epoch.elapsed() < window {
        samples.push(paged_read(&paged.db, &mix.slice(), epoch));
    }
    let elapsed = epoch.elapsed().as_secs_f64();
    let cpu_us_used = cpu_us("/proc/self/stat") - cpu_before;
    let after = paged.pool.stats();
    count_failures(&samples, &mut outcome);
    let lat = latencies(&samples);
    let disk = dir_bytes(&paged.dir)?;
    outcome.metrics = Common {
        parts: &[Part::of(&samples, elapsed, cpu_us_used)],
        ops: samples.len() as u64,
        recoveries: &recoveries,
        peak_rss_kib: vm_hwm_kib("/proc/self/status"),
        disk_ratio: disk as f64 / paged.data.user_bytes() as f64,
        setups: &setups,
    }
    .metrics();
    let ((cold_p50, cold_n), (hot_p50, hot_n)) = old_and_recent_p50_us(&samples);
    let pool_bytes = (ctx.scale.pool_pages * hrdm_storage::PAGE_SIZE) as f64;
    outcome.detail = vec![
        Metric::new(
            "query_p50_ms",
            us(median(&lat)) / 1e3,
            "ms",
            lat.len() as u64,
        ),
        Metric::new("cold_p50_ms", cold_p50 / 1e3, "ms", cold_n),
        Metric::new("hot_p50_ms", hot_p50 / 1e3, "ms", hot_n),
        Metric::new(
            "data_bytes_over_pool_bytes",
            disk as f64 / pool_bytes,
            "ratio",
            1,
        ),
        Metric::new(
            "pool_misses",
            (after.misses - before.misses) as f64,
            "count",
            1,
        ),
        Metric::new(
            "pool_evictions",
            (after.evictions - before.evictions) as f64,
            "count",
            1,
        ),
    ];
    outcome.notes.push(format!(
        "1 closed-loop thread, in process; pool fixed at {} pages ({:.1} MiB) against {:.1} MiB on disk; reads come from the OS page cache",
        ctx.scale.pool_pages,
        pool_bytes / 1048576.0,
        disk as f64 / 1048576.0
    ));
    Ok(outcome)
}

/// The data-builder child: `__build <dir> <seed> <births> <hist> <grp>`.
pub fn build_child(args: &[String]) -> io::Result<()> {
    let bad = || io::Error::other("usage: __build <dir> <seed> <Skewed|AppendMostly> <hist> <grp>");
    let [dir, seed, births, hist, grp] = args else {
        return Err(bad());
    };
    let data = DataSet {
        seed: seed.parse().map_err(|_| bad())?,
        births: match births.as_str() {
            "Skewed" => Births::Skewed,
            "AppendMostly" => Births::AppendMostly,
            _ => return Err(bad()),
        },
        hist: hist.parse().map_err(|_| bad())?,
        grp: grp.parse().map_err(|_| bad())?,
    };
    data.save_to(Path::new(dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ns: u64, ns: u64) -> Sample {
        Sample {
            class: Class::Key,
            old: false,
            variant: 0,
            end_ns,
            ns,
            rows: 1,
            bytes: 0,
            frames: 1,
            ok: true,
        }
    }

    #[test]
    fn slices_cut_at_the_marks_and_charge_each_its_own_processor_time() {
        // Ten ops in the first second, five in the second, none in the third.
        let mut samples: Vec<Sample> = (0..10).map(|i| sample(i * 100_000_000, 2_000)).collect();
        samples.extend((0..5).map(|i| sample(1_000_000_000 + i * 200_000_000, 4_000)));
        let marks = [
            (0, 500),
            (1_000_000_000, 1_500),
            (2_000_000_000, 2_500),
            (3_000_000_000, 2_500),
        ];
        let parts = slice_parts(&samples, &marks);
        assert_eq!(parts.len(), 2);
        let want = [(10.0, 2.0, 100.0), (5.0, 4.0, 200.0)];
        for (part, (rate, op_us, cpu)) in parts.iter().zip(want) {
            assert_eq!(part.ops_per_s, rate);
            assert!((part.op_us - op_us).abs() < 1e-9);
            assert_eq!(part.cpu_us_per_op, cpu);
        }
    }

    #[test]
    fn a_burst_of_interference_does_not_reach_the_calmest_quarter() {
        let part = |ops_per_s: f64| Part {
            ops_per_s,
            op_us: 1e6 / ops_per_s,
            cpu_us_per_op: 1.0,
        };
        // Eight slices, five of them disturbed: the best two are kept.
        let parts: Vec<Part> = [100.0, 60.0, 99.0, 55.0, 70.0, 101.0, 40.0, 65.0]
            .map(part)
            .to_vec();
        let rates: Vec<f64> = calmest_quarter(&parts)
            .iter()
            .map(|p| p.ops_per_s)
            .collect();
        assert_eq!(rates, vec![101.0, 100.0]);
        assert_eq!(calmest_quarter(&parts[..1]).len(), 1);
        assert_eq!(calmest_quarter(&parts[..5]).len(), 2);
    }
}

//! The flight recorder: a bounded ring of structured engine events.
//!
//! Counters say *how much*; the recorder says *what happened, in what
//! order*. Engine components append coarse milestone events — a commit
//! batch applied, a checkpoint beginning and ending, a buffer-pool
//! eviction, a cancel, a session opening or closing, an
//! error, a slow query — each stamped with a monotonic sequence
//! number, coarse wall-clock time, and the [`crate::trace`] id current
//! on the recording thread (so events can be joined back to the
//! request that caused them).
//!
//! ## Cost model
//!
//! Recording takes one short mutex around a `VecDeque` push. Events
//! are *batch-scale*, never row-scale: the hottest producer is the
//! buffer pool under forced eviction, which records once per eviction
//! sweep, not per page. The ring is bounded at [`RING_CAPACITY`];
//! overflow drops the oldest event and counts it, so a quiet anomaly
//! investigated hours later still has the most recent history.
//!
//! ## Anomaly snapshots
//!
//! The ring alone can rotate past the interesting part before anyone
//! looks. Components that detect an anomaly (an error frame sent, a
//! slowlog admission) call [`FlightRecorder::anomaly`], which clones
//! the trailing [`ANOMALY_WINDOW`] events into a small FIFO of
//! [`AnomalySnapshot`]s — a frozen "what led up to this" window that
//! survives ring rotation. All recording is a no-op under the
//! `HRDM_OBS_OFF` kill switch.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Bound on ring entries (oldest dropped beyond this).
pub const RING_CAPACITY: usize = 1024;
/// Trailing events captured per anomaly snapshot.
pub const ANOMALY_WINDOW: usize = 64;
/// Bound on retained anomaly snapshots (oldest dropped beyond this).
pub const ANOMALY_CAPACITY: usize = 4;
/// Bound on a single event's detail text, in bytes (longer is cut).
pub const DETAIL_CAP: usize = 256;

/// What kind of milestone an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum EventKind {
    CommitApplied,
    CheckpointBegin,
    CheckpointEnd,
    PoolEviction,
    Cancel,
    SessionOpen,
    SessionClose,
    Error,
    SlowQuery,
}

impl EventKind {
    /// The stable wire/text name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::CommitApplied => "commit",
            EventKind::CheckpointBegin => "checkpoint-begin",
            EventKind::CheckpointEnd => "checkpoint-end",
            EventKind::PoolEviction => "pool-evict",
            EventKind::Cancel => "cancel",
            EventKind::SessionOpen => "session-open",
            EventKind::SessionClose => "session-close",
            EventKind::Error => "error",
            EventKind::SlowQuery => "slow-query",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic per-recorder sequence number (1-based).
    pub seq: u64,
    /// Coarse wall-clock stamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The trace id current on the recording thread (0 = none).
    pub trace: u128,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context, capped at [`DETAIL_CAP`] bytes.
    pub detail: String,
}

impl EventRecord {
    /// One-line text rendering (`\events` and anomaly dumps use this).
    pub fn render(&self) -> String {
        let trace = if self.trace == 0 {
            "-".to_string()
        } else {
            crate::trace::render(self.trace)
        };
        format!(
            "#{:<6} t={} trace={} {} {}",
            self.seq,
            self.unix_ms,
            trace,
            self.kind.as_str(),
            self.detail
        )
    }
}

/// A frozen trailing window captured when an anomaly was detected.
#[derive(Clone, Debug)]
pub struct AnomalySnapshot {
    /// Sequence number of the newest event in the window at capture.
    pub at_seq: u64,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Why the snapshot was taken (e.g. `error frame`, `slowlog`).
    pub reason: String,
    /// The trailing events, oldest first.
    pub window: Vec<EventRecord>,
}

struct Inner {
    ring: VecDeque<EventRecord>,
    anomalies: VecDeque<AnomalySnapshot>,
    seq: u64,
    recorded: u64,
    dropped: u64,
    anomaly_count: u64,
}

/// The bounded event ring. See the module docs for the cost model.
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Inner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` events.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                anomalies: VecDeque::new(),
                seq: 0,
                recorded: 0,
                dropped: 0,
                anomaly_count: 0,
            }),
        }
    }

    /// Appends an event stamped with the thread's current trace id.
    /// No-op when observability is disabled.
    pub fn record(&self, kind: EventKind, detail: impl Into<String>) {
        self.record_traced(crate::trace::current().unwrap_or(0), kind, detail);
    }

    /// Appends an event with an explicit trace id (0 = none). No-op
    /// when observability is disabled.
    pub fn record_traced(&self, trace: u128, kind: EventKind, detail: impl Into<String>) {
        if !crate::enabled() {
            return;
        }
        let mut detail = detail.into();
        if detail.len() > DETAIL_CAP {
            let cut = (0..=DETAIL_CAP)
                .rev()
                .find(|&i| detail.is_char_boundary(i))
                .unwrap_or(0);
            detail.truncate(cut);
        }
        let unix_ms = now_ms();
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        inner.seq += 1;
        inner.recorded += 1;
        let seq = inner.seq;
        if inner.ring.len() >= self.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(EventRecord {
            seq,
            unix_ms,
            trace,
            kind,
            detail,
        });
    }

    /// Freezes the trailing [`ANOMALY_WINDOW`] events into a retained
    /// [`AnomalySnapshot`]. No-op when observability is disabled.
    pub fn anomaly(&self, reason: impl Into<String>) {
        if !crate::enabled() {
            return;
        }
        let unix_ms = now_ms();
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        inner.anomaly_count += 1;
        let window: Vec<EventRecord> = inner
            .ring
            .iter()
            .rev()
            .take(ANOMALY_WINDOW)
            .rev()
            .cloned()
            .collect();
        let at_seq = window.last().map_or(inner.seq, |e| e.seq);
        if inner.anomalies.len() >= ANOMALY_CAPACITY {
            inner.anomalies.pop_front();
        }
        inner.anomalies.push_back(AnomalySnapshot {
            at_seq,
            unix_ms,
            reason: reason.into(),
            window,
        });
    }

    /// The newest `limit` events, oldest first (0 = everything held).
    pub fn snapshot(&self, limit: usize) -> Vec<EventRecord> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        let take = if limit == 0 {
            inner.ring.len()
        } else {
            limit.min(inner.ring.len())
        };
        inner.ring.iter().rev().take(take).rev().cloned().collect()
    }

    /// Retained anomaly snapshots, oldest first.
    pub fn anomalies(&self) -> Vec<AnomalySnapshot> {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .anomalies
            .iter()
            .cloned()
            .collect()
    }

    /// (events recorded, events dropped by rotation, anomalies taken).
    pub fn totals(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        (inner.recorded, inner.dropped, inner.anomaly_count)
    }

    /// Renders the recorder state as Prometheus-comment lines plus
    /// `hrdm_events_*` summary families, safe to append to an
    /// exposition document.
    pub fn render_summary(&self) -> String {
        let (recorded, dropped, anomalies) = self.totals();
        let mut out = String::new();
        out.push_str("# HELP hrdm_events_recorded_total Flight-recorder events recorded.\n");
        out.push_str("# TYPE hrdm_events_recorded_total counter\n");
        out.push_str(&format!("hrdm_events_recorded_total {recorded}\n"));
        out.push_str(
            "# HELP hrdm_events_dropped_total Flight-recorder events lost to ring rotation.\n",
        );
        out.push_str("# TYPE hrdm_events_dropped_total counter\n");
        out.push_str(&format!("hrdm_events_dropped_total {dropped}\n"));
        out.push_str("# HELP hrdm_events_anomalies_total Anomaly snapshots captured.\n");
        out.push_str("# TYPE hrdm_events_anomalies_total counter\n");
        out.push_str(&format!("hrdm_events_anomalies_total {anomalies}\n"));
        out
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// The process-wide recorder every engine component records into.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_rotates_and_counts_drops() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(EventKind::CommitApplied, format!("b{i}"));
        }
        let held = r.snapshot(0);
        assert_eq!(held.len(), 3);
        assert_eq!(held[0].detail, "b2");
        assert_eq!(held[2].detail, "b4");
        let seqs: Vec<u64> = held.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "sequence survives rotation");
        let (recorded, dropped, _) = r.totals();
        assert_eq!((recorded, dropped), (5, 2));
    }

    #[test]
    fn snapshot_limit_takes_newest() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(EventKind::SessionOpen, format!("s{i}"));
        }
        let last2 = r.snapshot(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].detail, "s3");
        assert_eq!(last2[1].detail, "s4");
    }

    #[test]
    fn events_stamp_the_current_trace() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(8);
        {
            let _scope = crate::trace::set_current(0xfeed);
            r.record(EventKind::SlowQuery, "slow");
        }
        r.record(EventKind::CommitApplied, "untraced");
        let held = r.snapshot(0);
        assert_eq!(held[0].trace, 0xfeed);
        assert_eq!(held[1].trace, 0);
        assert!(held[0].render().contains(&crate::trace::render(0xfeed)));
        assert!(held[1].render().contains("trace=-"));
    }

    #[test]
    fn anomalies_freeze_the_trailing_window() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(4);
        for i in 0..4 {
            r.record(EventKind::CommitApplied, format!("b{i}"));
        }
        r.anomaly("error frame");
        // Rotate the ring completely; the snapshot must not change.
        for i in 4..12 {
            r.record(EventKind::CommitApplied, format!("b{i}"));
        }
        let snaps = r.anomalies();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].reason, "error frame");
        let details: Vec<&str> = snaps[0].window.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["b0", "b1", "b2", "b3"]);
        assert_eq!(snaps[0].at_seq, 4);

        for n in 0..ANOMALY_CAPACITY + 2 {
            r.anomaly(format!("a{n}"));
        }
        assert_eq!(r.anomalies().len(), ANOMALY_CAPACITY);
    }

    #[test]
    fn detail_is_capped_at_a_char_boundary() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(2);
        let long = "é".repeat(DETAIL_CAP); // 2 bytes per char
        r.record(EventKind::Error, long);
        let held = r.snapshot(0);
        assert!(held[0].detail.len() <= DETAIL_CAP);
        assert!(!held[0].detail.is_empty());
    }

    #[test]
    fn summary_renders_counter_families() {
        crate::set_enabled(true);
        let r = FlightRecorder::new(2);
        r.record(EventKind::CommitApplied, "x");
        let text = r.render_summary();
        assert!(text.contains("hrdm_events_recorded_total"));
        assert!(text.contains("# TYPE hrdm_events_dropped_total counter"));
    }
}

//! # hrdm-obs — observability for the HRDM engine
//!
//! The instrumentation layer every other crate reports through, built
//! std-only like the rest of the workspace:
//!
//! * [`metrics`] — lock-cheap primitives: [`Counter`], [`Gauge`], and
//!   log2-bucketed [`Histogram`]s with p50/p95/p99 extraction. All of
//!   them are a handful of relaxed atomic operations on the hot path.
//! * [`registry`] — a named [`Registry`] of metric families rendered in
//!   Prometheus text exposition format, plus the process-wide
//!   [`registry::global`] registry the storage and query layers record
//!   into.
//! * [`slowlog`] — a bounded FIFO ring buffer of the worst recent
//!   requests with their plans, mirroring the Cancel-id bound of the
//!   wire protocol (default 32 entries, oldest evicted first).
//! * [`trace`] — request-scoped trace ids: a [`TraceContext`] minted
//!   by the originator, carried in the wire frame header, installed as
//!   a thread-local ambient id while the request is served, and read
//!   back by every reporting surface.
//! * [`event`] — the flight recorder: a bounded ring of structured
//!   engine events (commits, checkpoints, pool activity, sessions,
//!   errors, slow queries) with anomaly-triggered trailing-window
//!   snapshots.
//! * [`window`] — rolling per-second ring buckets over the hot
//!   counters and histograms: 60s rates (`hrdm_net_qps`), rolling
//!   latency percentiles, pool hit ratio, and the top-relations
//!   leaderboard behind `\top`.
//!
//! ## The kill switch
//!
//! Setting `HRDM_OBS_OFF=1` in the environment disables every *purely
//! observational* recording site (the WAL/checkpoint/query/net
//! recordings into the global registry). It does
//! **not** disable the [`Counter`]/[`Gauge`] cells that back
//! `CommitStats`/`ServerStats` — those feed `\stats` and are part of
//! the engine's functional surface. The switch exists so the bench
//! suite can price the observational overhead (<5% is the budget, CI
//! enforced); [`set_enabled`] flips the same switch programmatically
//! for in-process A/B runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod registry;
pub mod slowlog;
pub mod trace;
pub mod window;

pub use event::{recorder, EventKind, EventRecord, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{global, Registry};
pub use slowlog::{SlowEntry, SlowLog, SLOWLOG_CAPACITY};
pub use trace::TraceContext;
pub use window::{LatencyWindow, RateWindow, TopRelations};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether observational recording is on. Initialized lazily from the
/// `HRDM_OBS_OFF` environment variable (any non-empty value other than
/// `0` disables), overridable with [`set_enabled`]. One relaxed atomic
/// load on the hot path once initialized.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = std::env::var("HRDM_OBS_OFF").is_ok_and(|v| !v.is_empty() && v != "0");
            let state = if off { 2 } else { 1 };
            // Racing initializers compute the same answer; last store wins.
            ENABLED.store(state, Ordering::Relaxed);
            !off
        }
    }
}

/// Programmatically enables or disables observational recording,
/// overriding `HRDM_OBS_OFF`. Used by the bench suite to compare
/// instrumented and uninstrumented runs inside one process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

//! `obs-overhead` — the observability overhead gate.
//!
//! Measures the `timeslice_pruned_100k` workload (the same fixture and
//! query the gated bench uses) with metric emission **enabled** and
//! **disabled** (`hrdm_obs::set_enabled`, the programmatic form of
//! `HRDM_OBS_OFF=1`), alternating enabled/disabled samples so clock
//! drift and cache warmth cancel, and **fails** (exit 1) when the
//! enabled median exceeds the disabled median by more than 5%.
//!
//! The measured closure mirrors a full served request, not just the
//! query: each iteration also feeds the per-second rate and latency
//! windows (the rolling 60s QPS/percentile gauges) and stamps one
//! flight-recorder event, so the gate covers the whole telemetry plane
//! — counters, windows, and recorder together stay under 5%.
//!
//! The budget holds because the per-query cost of observability is a
//! handful of relaxed atomic adds (scan/pruning counters), one
//! thread-local check per plan node (spans, collected only under
//! `EXPLAIN ANALYZE`), two stamped ring-slot updates (windows), and an
//! uncontended mutex push into a bounded ring (recorder), against a
//! query that probes a 64-partition map — nanoseconds against tens of
//! microseconds.
//!
//! `HRDM_BENCH_FAST=1` shrinks the sample windows, like `bench-json`.

use hrdm_bench::gate::measure_median_ns;
use hrdm_bench::partition_fixture::{populated, SPAN_LOG2};
use hrdm_query::{parse_query, run_query};
use hrdm_storage::PartitionPolicy;
use std::time::Duration;

const TOLERANCE: f64 = 0.05;
const SAMPLES: usize = 7;

fn sample_time() -> Duration {
    if std::env::var_os("HRDM_BENCH_FAST").is_some_and(|v| v != "0") {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(100)
    }
}

fn main() {
    let snap = populated(PartitionPolicy::SpanLog2(SPAN_LOG2), 100_000).snapshot();
    let lo = 32i64 << SPAN_LOG2;
    let q = parse_query(&format!("TIMESLICE [{lo}..{}] (r)", lo + 50)).unwrap();

    // The per-request window work the server does around every request.
    // These self-gate on the kill switch, so they no-op in the disabled
    // samples — exactly the delta this gate exists to bound.
    let requests = hrdm_obs::window::RateWindow::new();
    let latency = hrdm_obs::window::LatencyWindow::new();

    let sample = |on: bool| {
        hrdm_obs::set_enabled(on);
        measure_median_ns(1, sample_time(), || {
            let started = std::time::Instant::now();
            std::hint::black_box(run_query(&q, &*snap).unwrap());
            requests.add(1);
            latency.record(started.elapsed().as_nanos() as u64);
            if hrdm_obs::enabled() {
                hrdm_obs::recorder()
                    .record(hrdm_obs::EventKind::SlowQuery, String::from("gate sample"));
            }
        })
    };

    // Warm both paths, then alternate so slow drift hits both equally.
    sample(true);
    sample(false);
    let mut on_ns = Vec::with_capacity(SAMPLES);
    let mut off_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        on_ns.push(sample(true));
        off_ns.push(sample(false));
    }
    hrdm_obs::set_enabled(true);

    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let on = median(&mut on_ns);
    let off = median(&mut off_ns);
    let ratio = on / off;
    eprintln!(
        "obs-overhead: timeslice_pruned_100k — enabled {on:.1} ns, \
         disabled {off:.1} ns, ratio {ratio:.4} (tolerance {:.2})",
        1.0 + TOLERANCE
    );
    if ratio > 1.0 + TOLERANCE {
        eprintln!(
            "obs-overhead: FAILED — metric emission costs {:.1}% on the \
             pruned-timeslice hot path (budget: {:.0}%)",
            (ratio - 1.0) * 100.0,
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("obs-overhead: OK");
}

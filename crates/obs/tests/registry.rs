//! The metrics registry under fire: an 8-thread counter/histogram
//! hammer (no lost updates), percentile estimates checked against a
//! sorted-vector oracle on random inputs.

use hrdm_obs::{Counter, Gauge, Histogram, Registry};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Concurrency: relaxed atomics still lose nothing.
// ---------------------------------------------------------------------------

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn eight_thread_counter_hammer_loses_no_updates() {
    let registry = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let registry = Arc::clone(&registry);
        handles.push(std::thread::spawn(move || {
            // Half the threads race to *register* the same families too,
            // not just to record — registration is get-or-create.
            let c = registry.counter("hammer_total", "hammered counter");
            let g = registry.gauge("hammer_gauge", "hammered gauge");
            for i in 0..PER_THREAD {
                c.inc();
                if (t + i as usize).is_multiple_of(2) {
                    g.inc();
                } else {
                    g.dec();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        registry.counter_value("hammer_total"),
        Some(THREADS as u64 * PER_THREAD)
    );
    // Each thread's alternating inc/dec nets to zero over an even count.
    let g = registry.gauge("hammer_gauge", "hammered gauge");
    assert_eq!(g.get(), 0);
}

#[test]
fn eight_thread_histogram_hammer_loses_no_observations() {
    let h = Arc::new(Histogram::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = Arc::clone(&h);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                // Spread observations across many buckets.
                h.record((t as u64 + 1) * (i % 1024));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(h.count(), total);
    let snap = h.snapshot();
    assert_eq!(snap.count(), total);
    assert_eq!(snap.buckets().iter().sum::<u64>(), total);
}

#[test]
fn shared_cells_see_updates_from_all_handles() {
    let registry = Registry::new();
    let mine = Arc::new(Counter::new());
    let registered = registry.register_counter("shared_total", "a shared cell", Arc::clone(&mine));
    mine.add(3);
    registered.add(4);
    assert_eq!(registry.counter_value("shared_total"), Some(7));

    let gauge = Arc::new(Gauge::new());
    registry.register_gauge("shared_gauge", "a shared gauge", Arc::clone(&gauge));
    gauge.set(5);
    assert!(registry.render_prometheus().contains("shared_gauge 5"));
}

// ---------------------------------------------------------------------------
// Percentiles vs a sorted-vector oracle.
// ---------------------------------------------------------------------------

proptest! {
    /// For any observation set and quantile, the histogram's estimate
    /// brackets the oracle's exact answer: `exact ≤ estimate`, and
    /// `estimate < 2·exact` when `exact ≥ 1` (log2 buckets can only
    /// round *up*, by less than one power of two). A zero oracle value
    /// must be estimated exactly.
    #[test]
    fn quantile_estimates_bracket_the_oracle(
        values in prop::collection::vec(0u64..1_000_000, 1..200),
        q in 1u32..=100,
    ) {
        let q = q as f64 / 100.0;
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let estimate = h.snapshot().quantile(q).expect("non-empty");
        prop_assert!(estimate >= exact, "estimate {estimate} < exact {exact}");
        if exact == 0 {
            prop_assert_eq!(estimate, 0);
        } else {
            prop_assert!(
                estimate < 2 * exact,
                "estimate {} not within 2x of exact {}", estimate, exact
            );
        }
    }

    /// count/sum are exact regardless of input.
    #[test]
    fn count_and_sum_are_exact(values in prop::collection::vec(0u64..1_000_000, 0..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }
}

//! The arithmetic the reported numbers rest on.

/// The `q`-quantile (`0 <= q <= 1`) of `sorted`, nearest-rank: the
/// smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[u64]) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Median of an unsorted `f64` sample (nearest rank).
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// The typical latency of a mix of op classes: the geometric mean, over
/// the groups, of each group's median. A plain median of a multi-modal
/// mix sits in the gap between two classes' modes and jumps from one to
/// the other between runs; each group's own median does not, and the
/// geometric mean (as in TPC-H's power metric) lets no slow class drown
/// the rest. `samples` are `(group, latency)`.
pub fn grouped_median<G: Ord + Copy>(samples: &[(G, u64)]) -> f64 {
    let mut by_group: std::collections::BTreeMap<G, Vec<u64>> = std::collections::BTreeMap::new();
    for &(g, v) in samples {
        by_group.entry(g).or_default().push(v);
    }
    if by_group.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = by_group
        .values()
        .map(|v| (median(v).max(1) as f64).ln())
        .sum();
    (log_sum / by_group.len() as f64).exp()
}

/// The tail metric: the window's samples, in completion order, are cut
/// into five equal slices; each slice's `q`-quantile is taken and the
/// median of the five is reported, so one scheduler hiccup (which lands
/// in one slice) cannot move it.
pub fn five_slice_tail(in_order: &[u64], q: f64) -> u64 {
    if in_order.len() < 5 {
        return median(in_order);
    }
    let tails: Vec<u64> = (0..5)
        .map(|i| {
            let lo = in_order.len() * i / 5;
            let hi = in_order.len() * (i + 1) / 5;
            let mut slice = in_order[lo..hi].to_vec();
            slice.sort_unstable();
            percentile(&slice, q)
        })
        .collect();
    median(&tails)
}

/// One open-loop request: when it was due, when the client was free to
/// send it (the later of its due time and the previous reply), when it
/// was actually sent, and when its reply completed. All in ns since the
/// phase started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenSample {
    pub due: u64,
    pub free: u64,
    pub sent: u64,
    pub done: u64,
}

impl OpenSample {
    /// Latency from the *due* time: a stall charges every request that
    /// queued behind it, not only the one that was in flight.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator itself was: the part of the send delay that
    /// the server did not cause (sleep overshoot, a descheduled client).
    pub fn lateness(&self) -> u64 {
        self.sent.saturating_sub(self.free.max(self.due))
    }
}

/// Due time of the `i`-th request of a fixed-rate schedule.
pub fn due_ns(i: u64, rate_per_s: u64) -> u64 {
    i * 1_000_000_000 / rate_per_s
}

/// Spread the builder's contract uses: the distance between the first and
/// third quartile as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64 / 4.0) - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = q(2);
    if med == 0.0 {
        return f64::INFINITY;
    }
    (q(3) - q(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn grouped_median_is_the_geometric_mean_of_group_medians() {
        // Two modes, 100 and 10 000: the plain median flips with one
        // sample, the grouped one stays at sqrt(100 * 10 000) = 1 000.
        let mut s: Vec<(u8, u64)> = Vec::new();
        s.extend([(0, 100); 50]);
        s.extend([(1, 10_000); 50]);
        assert!((grouped_median(&s) - 1_000.0).abs() < 1e-6);
        s.push((1, 10_000));
        assert!((grouped_median(&s) - 1_000.0).abs() < 1e-6);
        assert_eq!(grouped_median::<u8>(&[]), 0.0);
        assert!((grouped_median(&[(7u8, 5), (7, 9), (7, 7)]) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn one_hiccup_cannot_move_the_five_slice_tail() {
        let mut calm: Vec<u64> = (0..1_000).map(|i| 100 + i % 10).collect();
        let base = five_slice_tail(&calm, 0.99);
        assert_eq!(base, 109);
        // A burst of 30 slow requests (3 % of the window) inside one slice
        // moves that slice's p99 and the plain p99, but not the median.
        for s in calm.iter_mut().skip(450).take(30) {
            *s = 50_000;
        }
        assert_eq!(five_slice_tail(&calm, 0.99), base);
        let mut sorted = calm.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.99), 50_000);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // The server stalled: request 2 was due at 1 000 but the previous
        // reply only arrived at 5 000, and it was sent right then.
        let queued = OpenSample {
            due: 1_000,
            free: 5_000,
            sent: 5_010,
            done: 5_200,
        };
        assert_eq!(queued.latency(), 4_200);
        assert_eq!(queued.lateness(), 10);
        // The generator overslept: free at 0, due at 1 000, sent at 1 300.
        let overslept = OpenSample {
            due: 1_000,
            free: 0,
            sent: 1_300,
            done: 1_500,
        };
        assert_eq!(overslept.latency(), 500);
        assert_eq!(overslept.lateness(), 300);
        assert_eq!(due_ns(4_000, 4_000), 1_000_000_000);
        assert_eq!(due_ns(1, 4_000), 250_000);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
        let w = [13.0, 10.0, 20.0, 11.0];
        assert!((quartile_spread(&w) - 8.0 / 12.0).abs() < 1e-12);
    }
}

//! The bench-regression gate: measure tracked benches, emit them as a JSON
//! artifact, and compare against a committed baseline.
//!
//! The `bench-json` binary drives this module in CI: it runs the tracked
//! benches, writes `BENCH_8.json`, and **fails** when any tracked bench's
//! median regresses more than the tolerance (25%) against
//! `bench/baseline.json`. The comparison
//! logic lives here, in library code, so the gate itself is unit-tested —
//! including the "a 2× slowdown must fail" property.
//!
//! No serde: the workspace is offline, so the (tiny, flat) JSON format is
//! written and read by hand. Schema 2 adds a `"metrics"` object of
//! engine internals sampled from the [`hrdm_obs`] global registry after
//! the benches ran (group-commit batch sizes, partition prune ratios,
//! WAL latencies) — artifact-only trend data, never gated:
//!
//! ```json
//! {
//!   "schema": 2,
//!   "benches": [
//!     { "name": "timeslice_indexed_10k", "median_ns": 1234.5,
//!       "throughput_per_sec": 810372.6 }
//!   ],
//!   "metrics": {
//!     "hrdm_commit_batch_size_p50": 8,
//!     "hrdm_query_prune_ratio": 0.9688
//!   }
//! }
//! ```
//!
//! The metrics keys deliberately avoid the `"name"` key so
//! [`parse_baseline`]'s scanner (paired `"name"`/`"median_ns"` keys)
//! stays oblivious to the section.

use std::time::{Duration, Instant};

/// One tracked bench's measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Stable bench name (the baseline is keyed on it).
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
}

impl BenchResult {
    /// Iterations per second implied by the median.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            0.0
        }
    }
}

/// One committed baseline entry: the reference median of one bench.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// The bench this entry gates.
    pub name: String,
    /// Its committed median.
    pub median_ns: f64,
}

impl BaselineEntry {
    /// An entry for `name` with committed median `median_ns`.
    pub fn new(name: impl Into<String>, median_ns: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.into(),
            median_ns,
        }
    }
}

/// One bench that got slower than the baseline allows.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The offending bench.
    pub name: String,
    /// Its committed baseline median.
    pub baseline_ns: f64,
    /// Its measured median.
    pub current_ns: f64,
}

impl Regression {
    /// current / baseline — e.g. `2.0` for a 2× slowdown.
    pub fn ratio(&self) -> f64 {
        self.current_ns / self.baseline_ns
    }
}

/// Outcome of comparing a run against the baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateOutcome {
    /// Benches slower than `baseline × (1 + tolerance)`.
    pub regressions: Vec<Regression>,
    /// How many benches were present in both run and baseline.
    pub compared: usize,
    /// Benches in the baseline that this run did not produce — a gate
    /// that silently compares nothing must not pass green.
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// Does the gate pass?
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares measured results against the committed baseline. A bench
/// regresses when `current > baseline * (1 + tolerance)`. Benches present
/// only in the current run (newly added) are ignored; benches present only
/// in the baseline are reported as `missing`.
pub fn compare(current: &[BenchResult], baseline: &[BaselineEntry], tolerance: f64) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for entry in baseline {
        match current.iter().find(|r| r.name == entry.name) {
            None => outcome.missing.push(entry.name.clone()),
            Some(r) => {
                outcome.compared += 1;
                if r.median_ns > entry.median_ns * (1.0 + tolerance) {
                    outcome.regressions.push(Regression {
                        name: entry.name.clone(),
                        baseline_ns: entry.median_ns,
                        current_ns: r.median_ns,
                    });
                }
            }
        }
    }
    outcome
}

/// `numerator`'s median over `denominator`'s within one run — the shape of
/// a scaling bound ("100k may cost at most 3× what 1k costs"), which
/// holds or fails on any runner class. `None` when either bench is
/// missing from `results` or the denominator is not positive.
pub fn ratio(results: &[BenchResult], numerator: &str, denominator: &str) -> Option<f64> {
    let median = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.median_ns);
    match (median(numerator)?, median(denominator)?) {
        (n, d) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// Renders results as the artifact JSON (see the module docs).
pub fn to_json(results: &[BenchResult]) -> String {
    to_json_with_metrics(results, &[])
}

/// [`to_json`] plus the schema-2 `"metrics"` object: named samples of
/// engine internals (registry counters, histogram percentiles) riding
/// along in the artifact for trend tracking. Never parsed by the gate.
pub fn to_json_with_metrics(results: &[BenchResult], metrics: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"schema\": 2,\n  \"benches\": [\n");
    push_benches(&mut out, results);
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        // Integers render bare so counters stay exact in the artifact.
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!("    \"{name}\": {}{sep}\n", *value as i64));
        } else {
            out.push_str(&format!("    \"{name}\": {value:.4}{sep}\n"));
        }
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders the committed baseline: like [`to_json`] but with no metrics
/// section (the baseline gates medians, nothing else).
pub fn baseline_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"schema\": 2,\n  \"benches\": [\n");
    push_benches(&mut out, results);
    out.push_str("  ]\n}\n");
    out
}

/// Appends one line per result to the `"benches"` array.
fn push_benches(out: &mut String, results: &[BenchResult]) {
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"median_ns\": {:.1}, \"throughput_per_sec\": {:.1} }}{sep}\n",
            r.name,
            r.median_ns,
            r.throughput_per_sec()
        ));
    }
}

/// Parses baseline entries back out of the artifact/baseline JSON.
/// Deliberately a scanner, not a JSON parser: it accepts exactly the flat
/// shape [`to_json`]/[`baseline_json`] write (and hand-edits of them),
/// pairing each `"name"` with the next `"median_ns"`.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineEntry>, String> {
    fn number_after(rest: &str, key: &str, name: &str) -> Result<(f64, usize), String> {
        let at = rest
            .find(key)
            .ok_or_else(|| format!("no {key} after name \"{name}\""))?;
        let after_key = &rest[at + key.len()..];
        let colon = after_key
            .find(':')
            .ok_or_else(|| format!("no colon after {key} of \"{name}\""))?;
        let num_start = at + key.len() + colon + 1;
        let num = rest[num_start..].trim_start();
        let trimmed = rest[num_start..].len() - num.len();
        let end = num
            .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
            .unwrap_or(num.len());
        let value: f64 = num[..end]
            .trim()
            .parse()
            .map_err(|e| format!("bad {key} for \"{name}\": {e}"))?;
        Ok((value, num_start + trimmed + end))
    }

    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + "\"name\"".len()..];
        let open = rest
            .find('"')
            .ok_or_else(|| "missing opening quote after \"name\":".to_string())?;
        let rest_after_open = &rest[open + 1..];
        let close = rest_after_open
            .find('"')
            .ok_or_else(|| "unterminated name string".to_string())?;
        let name = rest_after_open[..close].to_string();
        rest = &rest_after_open[close + 1..];

        let (median_ns, consumed) = number_after(rest, "\"median_ns\"", &name)?;
        rest = &rest[consumed..];
        entries.push(BaselineEntry { name, median_ns });
    }
    if entries.is_empty() {
        return Err("no benches found in baseline JSON".to_string());
    }
    Ok(entries)
}

/// Measures the median ns/iteration of `f`: one warm-up sample, then
/// `samples` timed samples of at least `min_sample` wall time each; the
/// median of the per-sample means is robust against one-off stalls.
pub fn measure_median_ns<F: FnMut()>(samples: usize, min_sample: Duration, mut f: F) -> f64 {
    fn one_sample<F: FnMut()>(min: Duration, f: &mut F) -> f64 {
        let started = Instant::now();
        let mut iters = 0u64;
        loop {
            f();
            iters += 1;
            if started.elapsed() >= min {
                break;
            }
        }
        started.elapsed().as_nanos() as f64 / iters as f64
    }
    let _ = one_sample(min_sample, &mut f); // warm-up
    let mut means: Vec<f64> = (0..samples.max(1))
        .map(|_| one_sample(min_sample, &mut f))
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    means[means.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> Vec<BenchResult> {
        vec![
            BenchResult {
                name: "a".into(),
                median_ns: 100.0,
            },
            BenchResult {
                name: "b".into(),
                median_ns: 2_000.0,
            },
        ]
    }

    #[test]
    fn json_round_trips() {
        let expected = vec![
            BaselineEntry::new("a", 100.0),
            BaselineEntry::new("b", 2000.0),
        ];
        assert_eq!(parse_baseline(&to_json(&results())).unwrap(), expected);
        assert_eq!(
            parse_baseline(&baseline_json(&results())).unwrap(),
            expected
        );
    }

    /// The schema-2 metrics section renders, and — because its keys are
    /// not `"name"` — the baseline scanner still sees only the benches.
    #[test]
    fn metrics_section_renders_and_stays_invisible_to_the_scanner() {
        let metrics = vec![
            ("hrdm_commit_batch_size_p50".to_string(), 8.0),
            ("hrdm_query_prune_ratio".to_string(), 0.96875),
        ];
        let json = to_json_with_metrics(&results(), &metrics);
        assert!(json.contains("\"schema\": 2"), "{json}");
        assert!(json.contains("\"hrdm_commit_batch_size_p50\": 8"), "{json}");
        assert!(
            json.contains("\"hrdm_query_prune_ratio\": 0.9688"),
            "{json}"
        );
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(
            parsed,
            vec![
                BaselineEntry::new("a", 100.0),
                BaselineEntry::new("b", 2000.0)
            ]
        );
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = vec![
            BaselineEntry::new("a", 90.0),
            BaselineEntry::new("b", 1_900.0),
        ];
        // 100 vs 90 is +11%, 2000 vs 1900 is +5.3% — both under 25%.
        let outcome = compare(&results(), &baseline, 0.25);
        assert!(outcome.pass(), "{outcome:?}");
        assert_eq!(outcome.compared, 2);
    }

    /// The acceptance property: an injected 2× slowdown must fail the gate.
    #[test]
    fn two_x_slowdown_fails() {
        let baseline = vec![
            BaselineEntry::new("a", 100.0),
            BaselineEntry::new("b", 2_000.0),
        ];
        let slowed: Vec<BenchResult> = results()
            .into_iter()
            .map(|mut r| {
                r.median_ns *= 2.0;
                r
            })
            .collect();
        let outcome = compare(&slowed, &baseline, 0.25);
        assert!(!outcome.pass());
        assert_eq!(outcome.regressions.len(), 2);
        assert!((outcome.regressions[0].ratio() - 2.0).abs() < 1e-9);
    }

    /// A run that no longer produces a tracked bench must not pass green.
    #[test]
    fn missing_bench_fails() {
        let baseline = vec![
            BaselineEntry::new("a", 100.0),
            BaselineEntry::new("gone", 10.0),
        ];
        let outcome = compare(&results(), &baseline, 0.25);
        assert!(!outcome.pass());
        assert_eq!(outcome.missing, vec!["gone".to_string()]);
    }

    /// New benches without a baseline entry are allowed (the baseline is
    /// refreshed in the same PR that adds them).
    #[test]
    fn extra_current_bench_is_ignored() {
        let baseline = vec![BaselineEntry::new("a", 100.0)];
        let outcome = compare(&results(), &baseline, 0.25);
        assert!(outcome.pass());
        assert_eq!(outcome.compared, 1);
    }

    #[test]
    fn measure_produces_positive_medians() {
        let mut x = 0u64;
        let ns = measure_median_ns(3, Duration::from_millis(1), || {
            x = x.wrapping_add(1);
            std::hint::black_box(x);
        });
        assert!(ns > 0.0);
    }

    #[test]
    fn ratio_divides_medians_and_reports_missing_benches() {
        assert_eq!(ratio(&results(), "b", "a"), Some(20.0));
        assert_eq!(ratio(&results(), "b", "gone"), None);
        assert_eq!(ratio(&results(), "gone", "a"), None);
        let zero = vec![BenchResult {
            name: "z".into(),
            median_ns: 0.0,
        }];
        assert_eq!(ratio(&zero, "z", "z"), None);
    }

    #[test]
    fn garbage_baseline_is_an_error() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json at all").is_err());
    }
}

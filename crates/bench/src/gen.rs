//! Seeded relation generators.

use hrdm_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a generated historical relation.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Number of tuples (objects).
    pub tuples: usize,
    /// Time universe `[0, era]`.
    pub era: i64,
    /// Number of value changes per attribute over a tuple's lifespan
    /// (the paper's driver of tuple-timestamping blow-up).
    pub changes: usize,
    /// Number of disjoint pieces in each tuple lifespan (1 = no
    /// reincarnation; higher = fragmented histories).
    pub fragments: usize,
    /// RNG seed (generators are deterministic given the spec).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            tuples: 100,
            era: 1_000,
            changes: 8,
            fragments: 1,
            seed: 0x0C11_FF0D,
        }
    }
}

/// The benchmark scheme: `emp(K*: int, V: int, W: int)` over `[0, era]`.
pub fn emp_scheme(era: i64) -> Scheme {
    let span = Lifespan::interval(0, era);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, span.clone())
        .attr("V", HistoricalDomain::int(), span.clone())
        .attr("W", HistoricalDomain::int(), span)
        .build()
        .expect("bench scheme is well-formed")
}

/// A fragmented lifespan with `fragments` pieces inside `[0, era]`.
fn gen_lifespan(rng: &mut StdRng, era: i64, fragments: usize) -> Lifespan {
    let fragments = fragments.max(1);
    // Partition the era into `fragments` live pieces separated by gaps.
    let piece = era / (2 * fragments as i64).max(1);
    let mut spans = Vec::with_capacity(fragments);
    for i in 0..fragments as i64 {
        let base = i * 2 * piece;
        let jitter = if piece > 2 {
            rng.random_range(0..piece / 2)
        } else {
            0
        };
        let lo = (base + jitter).min(era);
        let hi = (lo + piece.max(1) - 1).min(era);
        if lo <= hi {
            spans.push((lo, hi));
        }
    }
    Lifespan::of(&spans)
}

/// A piecewise-constant int history over `life` with ~`changes` changes.
fn gen_history(rng: &mut StdRng, life: &Lifespan, changes: usize) -> TemporalValue {
    let card = life.cardinality();
    if card == 0 {
        return TemporalValue::empty();
    }
    let changes = (changes.max(1) as u64).min(card) as usize;
    // Choose change points inside the lifespan by walking its chronon count.
    let step = (card / changes as u64).max(1);
    let mut segments = Vec::with_capacity(changes + 1);
    let chronons: Vec<Chronon> = life.iter().collect();
    let mut start_idx = 0usize;
    let mut value = rng.random_range(0..1_000i64);
    let mut idx = step as usize;
    while start_idx < chronons.len() {
        let end_idx = idx.min(chronons.len());
        // One value per [start, end) run of the lifespan's chronons; the
        // canonical form will merge across adjacent runs automatically.
        let lo = chronons[start_idx];
        let hi = chronons[end_idx - 1];
        for run in life
            .clamp(Interval::new(lo, hi).expect("ordered"))
            .intervals()
        {
            segments.push((*run, Value::Int(value)));
        }
        value = rng.random_range(0..1_000i64);
        start_idx = end_idx;
        idx += step as usize;
    }
    TemporalValue::from_segments(segments).expect("disjoint by construction")
}

/// Generates a relation on [`emp_scheme`] per the spec.
pub fn gen_relation(spec: &WorkloadSpec) -> Relation {
    let scheme = emp_scheme(spec.era);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut tuples = Vec::with_capacity(spec.tuples);
    for k in 0..spec.tuples {
        let life = gen_lifespan(&mut rng, spec.era, spec.fragments);
        if life.is_empty() {
            continue;
        }
        let v = gen_history(&mut rng, &life, spec.changes);
        let w = gen_history(&mut rng, &life, spec.changes);
        let t = Tuple::builder(life)
            .constant("K", k as i64)
            .value("V", v)
            .value("W", w)
            .finish(&scheme)
            .expect("generated tuple is valid");
        tuples.push(t);
    }
    Relation::with_tuples(scheme, tuples).expect("keys distinct by construction")
}

/// The benchmark's `hist(K*: Int, V: Int, W: Time)` scheme over `[0, era]`.
pub fn hist_scheme(era: i64) -> Scheme {
    let span = Lifespan::interval(0, era);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, span.clone())
        .attr("V", HistoricalDomain::int(), span.clone())
        .attr("W", HistoricalDomain::time(), span)
        .build()
        .expect("hist scheme is well-formed")
}

/// `n` tuples on [`hist_scheme`] shaped like the benchmark's `hist` data:
/// a lifespan of one run of 60–300 chronons or, one tuple in five, three
/// runs of 40–160 chronons 200 apart; `V` takes five values over it (two,
/// two and one per run when reincarnated) and `W` holds the chronon each
/// became current. Needs `era > 1_000`.
pub fn hist_tuples(n: usize, era: i64, seed: u64) -> Vec<Tuple> {
    let scheme = hist_scheme(era);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as i64)
        .map(|k| {
            let mut lo = rng.random_range(0..era - 1_000);
            let runs: Vec<(i64, i64)> = if rng.random_range(0..5u32) == 0 {
                (0..3)
                    .map(|_| {
                        let run = (lo, lo + rng.random_range(40..=160i64));
                        lo = run.1 + 201;
                        run
                    })
                    .collect()
            } else {
                vec![(lo, lo + rng.random_range(60..=300i64))]
            };
            let pieces: &[i64] = if runs.len() == 1 { &[5] } else { &[2, 2, 1] };
            let (mut v, mut w) = (Vec::new(), Vec::new());
            for (&(lo, hi), &p) in runs.iter().zip(pieces) {
                for i in 0..p {
                    let (a, b) = (
                        lo + (hi - lo + 1) * i / p,
                        lo + (hi - lo + 1) * (i + 1) / p - 1,
                    );
                    v.push((a, b, Value::Int(rng.random_range(0..1_000i64))));
                    w.push((a, b, Value::time(a)));
                }
            }
            Tuple::builder(Lifespan::of(&runs))
                .constant("K", k)
                .value("V", TemporalValue::of(&v))
                .value("W", TemporalValue::of(&w))
                .finish(&scheme)
                .expect("generated hist tuple is valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(gen_relation(&spec), gen_relation(&spec));
    }

    #[test]
    fn spec_controls_size() {
        let small = gen_relation(&WorkloadSpec {
            tuples: 10,
            ..Default::default()
        });
        let big = gen_relation(&WorkloadSpec {
            tuples: 100,
            ..Default::default()
        });
        assert_eq!(small.len(), 10);
        assert_eq!(big.len(), 100);
    }

    #[test]
    fn changes_drive_segment_counts() {
        let calm = gen_relation(&WorkloadSpec {
            changes: 1,
            ..Default::default()
        });
        let busy = gen_relation(&WorkloadSpec {
            changes: 64,
            ..Default::default()
        });
        assert!(busy.segment_cells() > calm.segment_cells());
    }

    #[test]
    fn fragments_create_gaps() {
        let frag = gen_relation(&WorkloadSpec {
            fragments: 4,
            ..Default::default()
        });
        assert!(frag.iter().any(|t| t.lifespan().interval_count() > 1));
    }

    #[test]
    fn hist_tuples_have_the_benchmark_shape() {
        let tuples = hist_tuples(500, 1 << 20, 7);
        let scheme = hist_scheme(1 << 20);
        let r = Relation::with_tuples(scheme, tuples).unwrap();
        let runs: Vec<usize> = r.iter().map(|t| t.lifespan().interval_count()).collect();
        assert!(runs.iter().all(|&n| n == 1 || n == 3));
        assert!(runs.contains(&3) && runs.contains(&1));
        // W's values (the chronons they start at) never repeat, so no two
        // of its five segments merge.
        assert!(r
            .iter()
            .all(|t| t.value(&"W".into()).unwrap().segment_count() == 5));
    }

    #[test]
    fn generated_relations_validate() {
        let r = gen_relation(&WorkloadSpec::default());
        assert!(r.check_key_constraint().is_ok());
        for t in r.iter() {
            assert!(t.validate(r.scheme()).is_ok());
        }
    }
}

//! Seeded data: `hist(K*, V, W)` and `grp(G*, X)` over the era `[0, 2^20]`.
//!
//! Every tuple is a pure function of `(seed, key)`, so any thread can
//! re-derive the lifespan a reply must carry without a shared table, and
//! the measuring process never has to hold the data set the server holds.
//! Expected results come from these specs only, never from engine code.

use crate::rng::{Fnv, Rng};
use hrdm_core::prelude::*;
use hrdm_storage::{Database, PartitionPolicy};
use std::io;
use std::path::Path;

/// The era is `[0, ERA]`.
pub const ERA: i64 = 1 << 20;
/// `PartitionPolicy::SpanLog2(SPAN_LOG2)`: 64 partitions over the era.
pub const SPAN_LOG2: u32 = 14;
pub const SPAN: i64 = 1 << SPAN_LOG2;
pub const PARTITIONS: i64 = ERA / SPAN;
/// Half of all births fall in the newest `RECENT_PARTITIONS` partitions.
pub const RECENT_PARTITIONS: i64 = 8;
pub const RECENT_FROM: i64 = (PARTITIONS - RECENT_PARTITIONS) * SPAN;
/// Every gap of a reincarnated lifespan is exactly this long. A constant
/// gap keeps the overlap count of [`SliceCounter`] a pair of range counts.
pub const GAP: i64 = 200;
/// No lifespan extends further than this past its birth.
pub const MAX_EXTENT: i64 = 1_000;
/// Value segments per attribute per tuple: four value changes.
pub const SEGMENTS: usize = 5;

const STREAM_HIST: u64 = 1 << 40;
const STREAM_GRP: u64 = 2 << 40;

/// How births are spread over the era.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Births {
    /// Half in the newest eight partitions, half uniform over the rest.
    Skewed,
    /// Append-mostly: 90 % in the newest two partitions, 10 % corrections
    /// at uniformly old chronons.
    AppendMostly,
}

/// The generator's own description of one `hist` tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleSpec {
    pub key: i64,
    /// Maximal runs of the lifespan, ascending, disjoint, non-adjacent.
    pub runs: Vec<(i64, i64)>,
    /// `(lo, hi, v)`: `V = v` and `W = @lo` on `[lo, hi]`.
    pub segs: Vec<(i64, i64, i64)>,
}

impl TupleSpec {
    pub fn hist(seed: u64, births: Births, key: i64) -> TupleSpec {
        let mut rng = Rng::new(seed, STREAM_HIST | key as u64);
        let reincarnated = rng.chance(20);
        let birth = match births {
            Births::Skewed => {
                if rng.chance(50) {
                    rng.range(RECENT_FROM, ERA - MAX_EXTENT)
                } else {
                    rng.range(0, RECENT_FROM - 1)
                }
            }
            Births::AppendMostly => {
                let newest = (PARTITIONS - 2) * SPAN;
                if rng.chance(90) {
                    rng.range(newest, ERA - MAX_EXTENT)
                } else {
                    rng.range(0, newest - 1)
                }
            }
        };
        let mut runs = Vec::with_capacity(3);
        let mut segs = Vec::with_capacity(SEGMENTS);
        if reincarnated {
            let mut lo = birth;
            for pieces in [2, 2, 1] {
                let hi = lo + rng.range(40, 160);
                runs.push((lo, hi));
                split(&mut rng, lo, hi, pieces, &mut segs);
                lo = hi + 1 + GAP;
            }
        } else {
            let hi = birth + rng.range(60, 300);
            runs.push((birth, hi));
            split(&mut rng, birth, hi, SEGMENTS as i64, &mut segs);
        }
        TupleSpec { key, runs, segs }
    }

    pub fn birth(&self) -> i64 {
        self.runs[0].0
    }

    /// Born before the newest eight partitions: the archive side of the
    /// historical/archive split.
    pub fn is_old(&self) -> bool {
        self.birth() < RECENT_FROM
    }

    pub fn max_v(&self) -> i64 {
        self.segs.iter().map(|s| s.2).max().unwrap_or(0)
    }

    /// Whether the lifespan intersects `[a, b]`.
    pub fn meets(&self, a: i64, b: i64) -> bool {
        self.runs.iter().any(|&(lo, hi)| lo <= b && hi >= a)
    }

    /// The lifespan restricted to `[a, b]`, as runs.
    pub fn restrict(&self, a: i64, b: i64) -> Vec<(i64, i64)> {
        self.runs
            .iter()
            .filter(|&&(lo, hi)| lo <= b && hi >= a)
            .map(|&(lo, hi)| (lo.max(a), hi.min(b)))
            .collect()
    }

    /// Canonical size: 8 B per lifespan endpoint, 24 B per value segment
    /// (K is one constant segment per run). Independent of the engine's
    /// codec by construction.
    pub fn user_bytes(&self) -> u64 {
        (self.runs.len() * (16 + 24) + self.segs.len() * 2 * 24) as u64
    }

    pub fn lifespan(&self) -> Lifespan {
        Lifespan::of(&self.runs)
    }

    pub fn to_tuple(&self, scheme: &Scheme) -> Tuple {
        let v: Vec<(i64, i64, Value)> = self
            .segs
            .iter()
            .map(|&(lo, hi, v)| (lo, hi, Value::Int(v)))
            .collect();
        let w: Vec<(i64, i64, Value)> = self
            .segs
            .iter()
            .map(|&(lo, hi, _)| (lo, hi, Value::time(lo)))
            .collect();
        Tuple::builder(self.lifespan())
            .constant("K", self.key)
            .value("V", TemporalValue::of(&v))
            .value("W", TemporalValue::of(&w))
            .finish(scheme)
            .expect("generated hist tuple fits its scheme")
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.i64(self.key);
        for &(lo, hi) in &self.runs {
            h.i64(lo);
            h.i64(hi);
        }
        for &(lo, hi, v) in &self.segs {
            h.i64(lo);
            h.i64(hi);
            h.i64(v);
        }
    }
}

/// Cuts `[lo, hi]` into `pieces` segments at jittered, strictly
/// increasing boundaries and draws a value for each.
fn split(rng: &mut Rng, lo: i64, hi: i64, pieces: i64, out: &mut Vec<(i64, i64, i64)>) {
    let len = hi - lo + 1;
    let jitter = len / (4 * pieces);
    let mut start = lo;
    for i in 1..=pieces {
        let end = if i == pieces {
            hi
        } else {
            lo + len * i / pieces + rng.range(-jitter, jitter) - 1
        };
        out.push((start, end, rng.below(1_000) as i64));
        start = end + 1;
    }
}

/// The generator's description of one `grp` tuple: one run, constant `X`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GrpSpec {
    pub key: i64,
    pub lo: i64,
    pub hi: i64,
    pub x: i64,
}

impl GrpSpec {
    pub fn new(seed: u64, key: i64) -> GrpSpec {
        let mut rng = Rng::new(seed, STREAM_GRP | key as u64);
        let len = rng.range(100, 2_000);
        let lo = rng.range(0, ERA - len);
        let hi = lo + len;
        GrpSpec {
            key,
            lo,
            hi,
            x: rng.below(100) as i64,
        }
    }

    pub fn user_bytes(&self) -> u64 {
        16 + 24 + 24
    }

    pub fn to_tuple(&self, scheme: &Scheme) -> Tuple {
        let life = Lifespan::interval(self.lo, self.hi);
        Tuple::builder(life.clone())
            .constant("G", self.key)
            .value("X", TemporalValue::constant(&life, Value::Int(self.x)))
            .finish(scheme)
            .expect("generated grp tuple fits its scheme")
    }
}

fn era() -> Lifespan {
    Lifespan::interval(0, ERA)
}

/// `hist(K*: Int, V: Int, W: Time)`. W is time-valued (the chronon its
/// segment became current) because TIMEJOIN needs a time-valued attribute.
pub fn hist_scheme() -> Scheme {
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era())
        .attr("V", HistoricalDomain::int(), era())
        .attr("W", HistoricalDomain::time(), era())
        .build()
        .expect("hist scheme is well-formed")
}

/// `grp(G*: Int, X: Int)`.
pub fn grp_scheme() -> Scheme {
    Scheme::builder()
        .key_attr("G", ValueKind::Int, era())
        .attr("X", HistoricalDomain::int(), era())
        .build()
        .expect("grp scheme is well-formed")
}

/// What a data directory holds; `hist` keys are `0..hist`, `grp` keys
/// `0..grp`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataSet {
    pub seed: u64,
    pub births: Births,
    pub hist: i64,
    pub grp: i64,
}

impl DataSet {
    pub fn specs(&self) -> impl Iterator<Item = TupleSpec> + '_ {
        (0..self.hist).map(|k| TupleSpec::hist(self.seed, self.births, k))
    }

    pub fn grp_specs(&self) -> impl Iterator<Item = GrpSpec> + '_ {
        (0..self.grp).map(|g| GrpSpec::new(self.seed, g))
    }

    pub fn user_bytes(&self) -> u64 {
        self.specs().map(|s| s.user_bytes()).sum::<u64>()
            + self.grp_specs().map(|g| g.user_bytes()).sum::<u64>()
    }

    /// FNV-1a over every generated field, in key order.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in self.specs() {
            s.hash_into(&mut h);
        }
        for g in self.grp_specs() {
            h.i64(g.key);
            h.i64(g.lo);
            h.i64(g.hi);
            h.i64(g.x);
        }
        h.0
    }

    /// Loads the data set into a detached database under the benchmark's
    /// partition policy and saves it to `dir` as a checkpointed epoch.
    /// An empty data set still persists both schemes and the policy, which
    /// a WAL-only directory would not (the policy is not WAL-logged).
    pub fn save_to(&self, dir: &Path) -> io::Result<()> {
        let mut db = Database::new();
        db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
        let other = |e: hrdm_storage::DbError| io::Error::other(e.to_string());
        let hs = hist_scheme();
        db.create_relation("hist", hs.clone()).map_err(other)?;
        for s in self.specs() {
            db.insert("hist", s.to_tuple(&hs)).map_err(other)?;
        }
        let gs = grp_scheme();
        db.create_relation("grp", gs.clone()).map_err(other)?;
        for g in self.grp_specs() {
            db.insert("grp", g.to_tuple(&gs)).map_err(other)?;
        }
        db.save(dir).map_err(other)
    }
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Counts, in O(log n), the tuples whose lifespan meets a window — the
/// row count a TIMESLICE reply must carry.
///
/// A window `[a, b]` meets `#{lo <= b} - #{hi < a}` runs. A tuple met in
/// `k` consecutive runs was counted `k` times; it has `k - 1` gaps with a
/// met run on both sides, and because every gap is exactly [`GAP`] long
/// those are the gaps starting in `[a + 1, b - GAP]`.
#[derive(Clone, Debug, Default)]
pub struct SliceCounter {
    run_lo: Vec<i32>,
    run_hi: Vec<i32>,
    gap_lo: Vec<i32>,
}

impl SliceCounter {
    pub fn build(specs: impl Iterator<Item = TupleSpec>) -> SliceCounter {
        let mut c = SliceCounter::default();
        for s in specs {
            c.add(&s);
        }
        c.seal();
        c
    }

    pub fn add(&mut self, s: &TupleSpec) {
        for (i, &(lo, hi)) in s.runs.iter().enumerate() {
            self.run_lo.push(lo as i32);
            self.run_hi.push(hi as i32);
            if i + 1 < s.runs.len() {
                self.gap_lo.push(hi as i32 + 1);
            }
        }
    }

    /// Sorts the endpoint arrays; call after the last [`SliceCounter::add`].
    pub fn seal(&mut self) {
        self.run_lo.sort_unstable();
        self.run_hi.sort_unstable();
        self.gap_lo.sort_unstable();
    }

    /// Tuples whose lifespan intersects `[a, b]`.
    pub fn overlapping(&self, a: i64, b: i64) -> u64 {
        let below = |v: &[i32], x: i64| v.partition_point(|&e| i64::from(e) < x) as u64;
        let runs = below(&self.run_lo, b + 1) - below(&self.run_hi, a);
        let bridged = if b - GAP > a {
            below(&self.gap_lo, b - GAP + 1) - below(&self.gap_lo, a + 1)
        } else {
            0
        };
        runs - bridged
    }

    /// Tuples alive at chronon `t`.
    pub fn alive_at(&self, t: i64) -> u64 {
        self.overlapping(t, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(seed: u64) -> DataSet {
        DataSet {
            seed,
            births: Births::Skewed,
            hist: 3_000,
            grp: 100,
        }
    }

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        assert_eq!(ds(11).hash(), ds(11).hash());
        assert_ne!(ds(11).hash(), ds(12).hash());
    }

    #[test]
    fn specs_are_well_formed() {
        let mut reincarnated = 0;
        let mut recent = 0;
        for s in ds(5).specs() {
            assert!(s.runs.len() == 1 || s.runs.len() == 3);
            assert_eq!(s.segs.len(), SEGMENTS);
            assert!(s.runs.last().unwrap().1 <= ERA);
            assert!(s.runs.last().unwrap().1 - s.birth() <= MAX_EXTENT);
            for w in s.runs.windows(2) {
                assert_eq!(w[1].0 - w[0].1 - 1, GAP);
            }
            // Segments tile the runs exactly.
            let covered: i64 = s.segs.iter().map(|g| g.1 - g.0 + 1).sum();
            let alive: i64 = s.runs.iter().map(|r| r.1 - r.0 + 1).sum();
            assert_eq!(covered, alive);
            for g in &s.segs {
                assert!(g.0 <= g.1);
                assert!(!s.restrict(g.0, g.0).is_empty() && !s.restrict(g.1, g.1).is_empty());
            }
            reincarnated += usize::from(s.runs.len() == 3);
            recent += usize::from(!s.is_old());
            // The engine accepts it.
            s.to_tuple(&hist_scheme());
        }
        for g in ds(5).grp_specs() {
            assert!(0 <= g.lo && g.lo < g.hi && g.hi <= ERA);
            g.to_tuple(&grp_scheme());
        }
        assert!((450..750).contains(&reincarnated), "{reincarnated}");
        assert!((1_350..1_650).contains(&recent), "{recent}");
    }

    #[test]
    fn append_mostly_births_land_in_the_newest_two_partitions() {
        let d = DataSet {
            births: Births::AppendMostly,
            ..ds(3)
        };
        let newest = d
            .specs()
            .filter(|s| s.birth() >= (PARTITIONS - 2) * SPAN)
            .count();
        assert!((2_600..2_800).contains(&newest), "{newest}");
    }

    #[test]
    fn slice_counter_agrees_with_brute_force() {
        let d = ds(9);
        let specs: Vec<TupleSpec> = d.specs().collect();
        let counter = SliceCounter::build(specs.iter().cloned());
        let mut rng = Rng::new(1, 99);
        for width in [0, 50, GAP - 1, GAP, GAP + 1, 700, 5_000, 70_000] {
            for _ in 0..200 {
                let a = rng.range(0, ERA - width);
                let b = a + width;
                let brute = specs
                    .iter()
                    .filter(|s| !s.restrict(a, b).is_empty())
                    .count();
                assert_eq!(counter.overlapping(a, b), brute as u64, "[{a}, {b}]");
            }
        }
    }

    #[test]
    fn user_bytes_follow_the_canonical_formula() {
        let one = TupleSpec {
            key: 1,
            runs: vec![(0, 9)],
            segs: vec![(0, 9, 1)],
        };
        assert_eq!(one.user_bytes(), 16 + 24 + 48);
    }
}

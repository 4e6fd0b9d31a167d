//! Seeded op streams and the replies they must get.
//!
//! Every expectation is derived from the generator's own lifespans
//! ([`crate::data`]); a reply that differs is a failed op.

use crate::data::{DataSet, SliceCounter, TupleSpec, ERA, GAP, MAX_EXTENT, RECENT_FROM, SPAN};
use crate::rng::{Fnv, Rng};
use crate::wire::Reply;
use hrdm_core::{Attribute, Value};
use hrdm_time::{Chronon, Lifespan};

/// Width of a point-read TIMESLICE window: `[t, t + POINT_WINDOW]`.
pub const POINT_WINDOW: i64 = 50;

/// What kind of request an op is. Latencies are also reported per class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Class {
    /// `SELECT-WHEN (K = k) (hist)`
    Key,
    /// `TIMESLICE [t..t+50] (hist)`
    Slice,
    /// `TIMESLICE [t..t+50] (SELECT-WHEN (K = k) (hist))`
    AsOf,
    /// `SELECT-WHEN (V >= c) (hist)`: a full scan streaming many rows.
    Scan,
    /// An eight-partition-wide TIMESLICE.
    WideSlice,
    /// A slice of `hist` TIMEJOINed with `grp` on `W`.
    TimeJoin,
    /// UNION of two overlapping wide slices.
    Union,
    /// MINUS of two overlapping wide slices.
    Minus,
    /// `COUNT V` over a narrow slice: an aggregate over time.
    Count,
    /// `WHEN (SELECT-WHEN (V >= c) (hist))`: a lifespan-sorted result.
    When,
}

impl Class {
    pub const HEAVY: [Class; 7] = [
        Class::Scan,
        Class::WideSlice,
        Class::TimeJoin,
        Class::Union,
        Class::Minus,
        Class::Count,
        Class::When,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Key => "key",
            Class::Slice => "slice",
            Class::AsOf => "asof",
            Class::Scan => "scan",
            Class::WideSlice => "wide_slice",
            Class::TimeJoin => "timejoin",
            Class::Union => "union",
            Class::Minus => "minus",
            Class::Count => "count",
            Class::When => "when",
        }
    }
}

/// The reply an op must get.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expect {
    /// Exactly this many rows.
    Rows(u64),
    /// No row if `runs` is empty, else one row carrying exactly this key
    /// and this lifespan.
    Exact { key: i64, runs: Vec<(i64, i64)> },
    /// Exactly this lifespan.
    Lifespan(Vec<(i64, i64)>),
    /// A time-varying count whose value at `at` is `n`.
    CountAt { at: i64, n: i64 },
}

impl Expect {
    pub fn holds(&self, reply: &Reply) -> bool {
        self.holds_with_slack(reply, 0)
    }

    /// `slack` widens a row count upward by the number of inserts that
    /// may have landed since the expectation was computed (reads under
    /// writes); exact expectations ignore it.
    pub fn holds_with_slack(&self, reply: &Reply, slack: u64) -> bool {
        match self {
            Expect::Rows(n) => reply.rows >= *n && reply.rows <= n + slack,
            Expect::Exact { key, runs } => {
                if runs.is_empty() {
                    return reply.rows == 0;
                }
                let k = Attribute::new("K");
                reply.rows == 1
                    && reply.first.as_ref().is_some_and(|t| {
                        t.lifespan() == &Lifespan::of(runs)
                            && t.at(&k, Chronon::new(runs[0].0)) == Some(&Value::Int(*key))
                    })
            }
            Expect::Lifespan(runs) => reply.lifespan.as_ref() == Some(&Lifespan::of(runs)),
            Expect::CountAt { at, n } => reply.function.as_ref().is_some_and(|f| {
                match f.at(Chronon::new(*at)) {
                    Some(count) => count == &Value::Int(*n),
                    // With nothing alive at `at` the count is undefined there.
                    None => *n == 0,
                }
            }),
        }
    }
}

/// One read request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadOp {
    pub class: Class,
    /// Touches history older than the newest eight partitions.
    pub old: bool,
    /// Which instance of its class this is, for a fixed query set (0 for
    /// generated streams). Latencies are grouped by class, age and variant.
    pub variant: u32,
    pub text: String,
    pub expect: Expect,
}

impl ReadOp {
    pub fn hash_into(&self, h: &mut Fnv) {
        h.bytes(self.text.as_bytes());
        h.bytes(format!("{:?}", self.expect).as_bytes());
    }
}

/// The point-read mix: 45 % key probes, 45 % narrow TIMESLICEs with a
/// recency-skewed `t`, 10 % as-of reads of one key.
///
/// The third class is an as-of read rather than `WHEN (...)`: lifespan-
/// sorted queries bypass the planner and scan the whole relation, so a
/// 10 % share of them would be nearly all of this mix's time (see README).
pub struct PointMix<'a> {
    data: DataSet,
    counter: &'a SliceCounter,
    rng: Rng,
    /// Keys `0..keys` may be read.
    pub keys: i64,
    /// TIMESLICE windows are drawn 80 % from `[hot_from, ERA]`.
    hot_from: i64,
}

impl<'a> PointMix<'a> {
    pub fn new(data: DataSet, counter: &'a SliceCounter, stream: u64) -> PointMix<'a> {
        PointMix {
            data,
            counter,
            rng: Rng::new(data.seed, (3 << 40) | stream),
            keys: data.hist,
            hot_from: RECENT_FROM,
        }
    }

    /// Narrows the hot region (the paged workload keeps it pool-sized).
    pub fn with_hot_from(mut self, hot_from: i64) -> PointMix<'a> {
        self.hot_from = hot_from;
        self
    }

    fn window_start(&mut self) -> i64 {
        if self.rng.chance(80) {
            self.rng.range(self.hot_from, ERA - POINT_WINDOW)
        } else {
            self.rng.range(0, ERA - POINT_WINDOW)
        }
    }

    pub fn slice(&mut self) -> ReadOp {
        let t = self.window_start();
        ReadOp {
            class: Class::Slice,
            old: t < self.hot_from,
            variant: 0,
            text: format!("TIMESLICE [{t}..{}] (hist)", t + POINT_WINDOW),
            expect: Expect::Rows(self.counter.overlapping(t, t + POINT_WINDOW)),
        }
    }

    pub fn key(&mut self) -> ReadOp {
        let spec = TupleSpec::hist(
            self.data.seed,
            self.data.births,
            self.rng.range(0, self.keys - 1),
        );
        ReadOp {
            class: Class::Key,
            old: spec.is_old(),
            variant: 0,
            text: format!("SELECT-WHEN (K = {}) (hist)", spec.key),
            expect: Expect::Exact {
                key: spec.key,
                runs: spec.runs,
            },
        }
    }

    pub fn as_of(&mut self) -> ReadOp {
        let spec = TupleSpec::hist(
            self.data.seed,
            self.data.births,
            self.rng.range(0, self.keys - 1),
        );
        // Three in four land on (or straddle an edge of) the key's own
        // lifespan; the rest miss it and must return nothing.
        let t = if self.rng.chance(75) {
            let (lo, hi) = spec.runs[self.rng.below(spec.runs.len() as u64) as usize];
            self.rng
                .range(lo - POINT_WINDOW / 2, hi - POINT_WINDOW / 2)
                .clamp(0, ERA - POINT_WINDOW)
        } else {
            self.window_start()
        };
        ReadOp {
            class: Class::AsOf,
            old: t < self.hot_from,
            variant: 0,
            text: format!(
                "TIMESLICE [{t}..{}] (SELECT-WHEN (K = {}) (hist))",
                t + POINT_WINDOW,
                spec.key
            ),
            expect: Expect::Exact {
                key: spec.key,
                runs: spec.restrict(t, t + POINT_WINDOW),
            },
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        match self.rng.below(100) {
            0..=44 => self.key(),
            45..=89 => self.slice(),
            _ => self.as_of(),
        }
    }
}

/// The heavy classes' query set: `variants` seeded instances of each
/// class, with expectations computed by brute force over the specs.
pub fn analytic_ops(
    data: DataSet,
    specs: &[TupleSpec],
    counter: &SliceCounter,
    variants: usize,
) -> Vec<ReadOp> {
    let mut rng = Rng::new(data.seed, 4 << 40);
    let grp: Vec<_> = data.grp_specs().collect();
    let mut out = Vec::new();
    for v in 0..variants {
        // Alternate the heavy windows between the recent and the old side
        // of the era, so both sides of the historical/archive split are
        // exercised by every class. Recent windows end just before the
        // stretch at the era's end where births thin out, old ones fall
        // anywhere in the uniformly populated part; thresholds are fixed
        // per variant. A seed then changes the data under the query set
        // but not how heavy the set is.
        let old = v % 2 == 1;
        let step = v as i64;
        let start = |rng: &mut Rng, width: i64| {
            if old {
                rng.range(0, RECENT_FROM - width)
            } else {
                ERA - MAX_EXTENT - width - rng.range(0, SPAN / 4)
            }
        };
        for class in Class::HEAVY {
            let (text, expect, old) = match class {
                Class::Scan => {
                    let c = 900 + 15 * step;
                    let rows = specs.iter().filter(|s| s.max_v() >= c).count() as u64;
                    (
                        format!("SELECT-WHEN (V >= {c}) (hist)"),
                        Expect::Rows(rows),
                        false,
                    )
                }
                Class::WideSlice => {
                    let a = start(&mut rng, 8 * SPAN);
                    let b = a + 8 * SPAN;
                    (
                        format!("TIMESLICE [{a}..{b}] (hist)"),
                        Expect::Rows(counter.overlapping(a, b)),
                        old,
                    )
                }
                Class::TimeJoin => {
                    let a = start(&mut rng, SPAN);
                    let b = a + SPAN;
                    (
                        format!("TIMESLICE [{a}..{b}] (hist) TIMEJOIN @W grp"),
                        Expect::Rows(time_join_rows(specs, &grp, a, b)),
                        old,
                    )
                }
                Class::Union | Class::Minus => {
                    let a = start(&mut rng, 6 * SPAN);
                    let (a1, b1, a2, b2) = (a, a + 4 * SPAN, a + 2 * SPAN, a + 6 * SPAN);
                    let (in_a, in_b, same) = overlap_counts(specs, (a1, b1), (a2, b2));
                    let (word, rows) = if class == Class::Union {
                        ("UNION", in_a + in_b - same)
                    } else {
                        ("MINUS", in_a - same)
                    };
                    (
                        format!(
                            "TIMESLICE [{a1}..{b1}] (hist) {word} TIMESLICE [{a2}..{b2}] (hist)"
                        ),
                        Expect::Rows(rows),
                        old,
                    )
                }
                Class::Count => {
                    let a = start(&mut rng, GAP);
                    let at = a + GAP / 2;
                    (
                        format!("COUNT V (TIMESLICE [{a}..{}] (hist))", a + GAP),
                        Expect::CountAt {
                            at,
                            n: counter.alive_at(at) as i64,
                        },
                        old,
                    )
                }
                Class::When => {
                    let c = 990 + 2 * step;
                    (
                        format!("WHEN (SELECT-WHEN (V >= {c}) (hist))"),
                        Expect::Lifespan(when_v_at_least(specs, c)),
                        false,
                    )
                }
                Class::Key | Class::Slice | Class::AsOf => unreachable!("not a heavy class"),
            };
            out.push(ReadOp {
                class,
                old,
                variant: v as u32,
                text,
                expect,
            });
        }
    }
    out
}

/// Rows of `TIMESLICE [a..b] (hist) TIMEJOIN @W grp`. `W` holds the
/// chronon its segment started at, so the sliced tuple's image is the set
/// of segment starts; a pair joins where a start inside `[a, b]` falls in
/// the `grp` tuple's lifespan.
fn time_join_rows(specs: &[TupleSpec], grp: &[crate::data::GrpSpec], a: i64, b: i64) -> u64 {
    let mut rows = 0;
    for s in specs {
        let points: Vec<i64> = s
            .segs
            .iter()
            .map(|g| g.0)
            .filter(|&p| a <= p && p <= b)
            .collect();
        if points.is_empty() {
            continue;
        }
        rows += grp
            .iter()
            .filter(|g| points.iter().any(|&p| g.lo <= p && p <= g.hi))
            .count() as u64;
    }
    rows
}

/// `(tuples meeting A, tuples meeting B, tuples whose restriction to A
/// equals their non-empty restriction to B)`: what UNION deduplicates and
/// MINUS removes.
fn overlap_counts(specs: &[TupleSpec], a: (i64, i64), b: (i64, i64)) -> (u64, u64, u64) {
    let (mut in_a, mut in_b, mut same) = (0, 0, 0);
    for s in specs {
        let (meets_a, meets_b) = (s.meets(a.0, a.1), s.meets(b.0, b.1));
        in_a += u64::from(meets_a);
        in_b += u64::from(meets_b);
        same += u64::from(meets_a && meets_b && s.restrict(a.0, a.1) == s.restrict(b.0, b.1));
    }
    (in_a, in_b, same)
}

/// The union, as maximal runs, of every span on which some tuple's `V`
/// is at least `c`.
fn when_v_at_least(specs: &[TupleSpec], c: i64) -> Vec<(i64, i64)> {
    let mut spans: Vec<(i64, i64)> = specs
        .iter()
        .flat_map(|s| s.segs.iter())
        .filter(|g| g.2 >= c)
        .map(|g| (g.0, g.1))
        .collect();
    spans.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in spans {
        match out.last_mut() {
            Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Births;

    fn data(seed: u64) -> DataSet {
        DataSet {
            seed,
            births: Births::Skewed,
            hist: 2_000,
            grp: 60,
        }
    }

    fn stream_hash(seed: u64) -> u64 {
        let d = data(seed);
        let specs: Vec<TupleSpec> = d.specs().collect();
        let counter = SliceCounter::build(specs.iter().cloned());
        let mut h = Fnv::default();
        let mut mix = PointMix::new(d, &counter, 0);
        for _ in 0..500 {
            mix.next_op().hash_into(&mut h);
        }
        for op in analytic_ops(d, &specs, &counter, 2) {
            op.hash_into(&mut h);
        }
        h.0
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        assert_eq!(stream_hash(21), stream_hash(21));
        assert_ne!(stream_hash(21), stream_hash(22));
    }

    #[test]
    fn the_point_mix_has_its_stated_shares() {
        let d = data(4);
        let counter = SliceCounter::build(d.specs());
        let mut mix = PointMix::new(d, &counter, 1);
        let mut n = [0usize; 3];
        let mut old = 0;
        for _ in 0..10_000 {
            let op = mix.next_op();
            n[[Class::Key, Class::Slice, Class::AsOf]
                .iter()
                .position(|&c| c == op.class)
                .unwrap()] += 1;
            old += usize::from(op.old && op.class == Class::Slice);
        }
        assert!((4_300..4_700).contains(&n[0]), "{n:?}");
        assert!((4_300..4_700).contains(&n[1]), "{n:?}");
        assert!((800..1_200).contains(&n[2]), "{n:?}");
        // 20 % of slices are uniform over the era, 7/8 of which is old.
        assert!((600..1_000).contains(&old), "{old}");
    }

    #[test]
    fn merged_when_spans_are_maximal() {
        let s = |segs: Vec<(i64, i64, i64)>| TupleSpec {
            key: 0,
            runs: vec![(0, 100)],
            segs,
        };
        let specs = [
            s(vec![(0, 9, 999), (10, 19, 1)]),
            s(vec![(10, 14, 999), (30, 40, 995)]),
        ];
        assert_eq!(when_v_at_least(&specs, 990), vec![(0, 14), (30, 40)]);
        assert_eq!(when_v_at_least(&specs, 999), vec![(0, 14)]);
    }

    #[test]
    fn union_and_minus_counts_follow_set_semantics() {
        let t = |runs: Vec<(i64, i64)>| TupleSpec {
            key: 0,
            runs,
            segs: vec![],
        };
        // A = [0, 40], B = [20, 60].
        let specs = [
            t(vec![(25, 35)]), // inside both: identical restrictions
            t(vec![(10, 30)]), // meets both, restrictions differ
            t(vec![(0, 5)]),   // A only
            t(vec![(50, 55)]), // B only
            t(vec![(70, 80)]), // neither
        ];
        assert_eq!(overlap_counts(&specs, (0, 40), (20, 60)), (3, 3, 1));
    }

    #[test]
    fn a_count_is_undefined_where_nothing_is_alive() {
        let count = hrdm_core::TemporalValue::constant(&Lifespan::of(&[(10, 20)]), Value::Int(3));
        let reply = Reply {
            function: Some(count),
            ..Reply::default()
        };
        assert!(Expect::CountAt { at: 15, n: 3 }.holds(&reply));
        assert!(!Expect::CountAt { at: 15, n: 0 }.holds(&reply));
        assert!(Expect::CountAt { at: 30, n: 0 }.holds(&reply));
        assert!(!Expect::CountAt { at: 30, n: 2 }.holds(&reply));
        assert!(!Expect::CountAt { at: 30, n: 0 }.holds(&Reply::default()));
    }
}

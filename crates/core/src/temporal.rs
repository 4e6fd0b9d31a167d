//! Temporal values: partial functions from `T` into a value domain.
//!
//! This is the defining move of HRDM (paper §3): "the values of all
//! attributes [are] functions from time points to simple domains". A
//! [`TemporalValue`] is one such partial function `f : T → D_i` (or `T → T`
//! for time-valued attributes), represented as piecewise-constant segments.

use crate::errors::{HrdmError, Result};
use crate::value::Value;
use hrdm_time::{Chronon, Interval, Lifespan};
use std::collections::BTreeSet;
use std::fmt;

/// A partial function from the time domain `T` into atomic values, stored as
/// piecewise-constant segments in canonical form.
///
/// # Canonical form
///
/// Segments are sorted by interval start, pairwise disjoint, and *maximal*:
/// two adjacent segments never carry the same value (they would have been
/// merged). Therefore structural equality coincides with function equality,
/// which the set-based algebra relies on.
///
/// Per-chronon data needs unit-width segments, so this representation loses
/// no generality; the succinct encodings live one level down, in the
/// representation level (`hrdm-interp`, paper Fig. 9).
///
/// The segments are one exact-size heap slice (16 bytes inline, no spare
/// capacity); the nowhere-defined function allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct TemporalValue {
    /// Canonical `(interval, value)` segments.
    segs: Box<[(Interval, Value)]>,
}

impl TemporalValue {
    /// The nowhere-defined function (an attribute that never has a value).
    pub fn empty() -> TemporalValue {
        TemporalValue::default()
    }

    /// The constant function mapping every chronon of `span` to `value` —
    /// an inhabitant of the paper's constant subdomain `CD`.
    pub fn constant(span: &Lifespan, value: Value) -> TemporalValue {
        TemporalValue {
            segs: span
                .intervals()
                .iter()
                .map(|iv| (*iv, value.clone()))
                .collect(),
        }
    }

    /// Builds a function from arbitrary `(interval, value)` pairs.
    ///
    /// Overlapping pairs with equal values are merged; overlapping pairs with
    /// different values are rejected with
    /// [`HrdmError::ConflictingSegments`] — they would not describe a
    /// function.
    pub fn from_segments<I>(segments: I) -> Result<TemporalValue>
    where
        I: IntoIterator<Item = (Interval, Value)>,
    {
        let mut segs: Vec<(Interval, Value)> = segments.into_iter().collect();
        let key = |(iv, _): &(Interval, Value)| (iv.lo(), iv.hi());
        if !segs.is_sorted_by_key(key) {
            segs.sort_by_key(key);
        }
        // Coalesce in place: canonical input (every decode) keeps its
        // allocation, which becomes the exact-size slice as is.
        let mut conflict = false;
        segs.dedup_by(|(iv, v), (last_iv, last_v)| {
            let merge = last_iv.overlaps(iv) || (last_iv.adjacent(iv) && last_v == v);
            if merge {
                conflict |= last_v != v;
                *last_iv = last_iv.hull(iv);
            }
            merge
        });
        if conflict {
            return Err(HrdmError::ConflictingSegments);
        }
        Ok(TemporalValue { segs: segs.into() })
    }

    /// Builds a function from `(lo, hi, value)` tick triples (test/example
    /// convenience). Panics on malformed input — use [`from_segments`] for
    /// fallible construction.
    ///
    /// [`from_segments`]: TemporalValue::from_segments
    pub fn of(triples: &[(i64, i64, Value)]) -> TemporalValue {
        TemporalValue::from_segments(
            triples
                .iter()
                .map(|(lo, hi, v)| (Interval::of(*lo, *hi), v.clone())),
        )
        // lint: no-panic-ok(documented contract of this literal-building convenience constructor)
        .expect("TemporalValue::of requires non-conflicting segments")
    }

    /// A function defined at a single chronon.
    pub fn at_point(t: impl Into<Chronon>, value: Value) -> TemporalValue {
        TemporalValue {
            segs: Box::new([(Interval::point(t.into()), value)]),
        }
    }

    /// The canonical segments.
    pub fn segments(&self) -> &[(Interval, Value)] {
        &self.segs
    }

    /// Number of canonical segments (a size measure for benches).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Is the function nowhere defined?
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The function's domain of definition, as a lifespan.
    pub fn domain(&self) -> Lifespan {
        Lifespan::from_intervals(self.segs.iter().map(|(iv, _)| *iv))
    }

    /// `f(t)` — the value at chronon `t`, or `None` where undefined.
    ///
    /// The paper (§3): "the value of t(A)(s) is undefined for any s not in
    /// this time period. In this context undefined means that the attribute
    /// is not relevant at such times, and thus does not exist."
    pub fn at(&self, t: Chronon) -> Option<&Value> {
        self.segs
            .binary_search_by(|(iv, _)| {
                if iv.hi() < t {
                    std::cmp::Ordering::Less
                } else if iv.lo() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
            .map(|i| &self.segs[i].1)
    }

    /// Is this a constant function (at most one distinct value) — i.e. an
    /// inhabitant of `CD`?
    pub fn is_constant(&self) -> bool {
        self.segs.windows(2).all(|w| w[0].1 == w[1].1)
    }

    /// The single value of a non-empty constant function.
    pub fn constant_value(&self) -> Option<&Value> {
        if self.is_constant() {
            self.segs.first().map(|(_, v)| v)
        } else {
            None
        }
    }

    /// The restriction `f|_L` (paper §3 notation) to lifespan `L`: the
    /// [`clipped`](TemporalValue::clipped) segments, collected into an
    /// exact-size slice.
    pub fn restrict(&self, span: &Lifespan) -> TemporalValue {
        let clipped = self.clipped(span);
        let mut segs = Vec::with_capacity(clipped.clone().count());
        segs.extend(clipped.map(|(iv, v)| (iv, v.clone())));
        TemporalValue { segs: segs.into() }
    }

    /// The segments of `f|_L`, computed on the fly without allocating —
    /// the one definition of a clip, shared by [`TemporalValue::restrict`]
    /// and encoders that write a restriction without building it.
    pub fn clipped<'a>(&'a self, span: &'a Lifespan) -> ClippedSegments<'a> {
        ClippedSegments {
            segs: &self.segs,
            runs: span.intervals(),
            i: 0,
            j: 0,
            pending: None,
        }
    }

    /// Do two partial functions agree wherever both are defined? (This is
    /// the function-level core of tuple *mergability*, paper §4.1 cond. 3.)
    pub fn compatible_with(&self, other: &TemporalValue) -> bool {
        // Two-pointer sweep over both canonical segment lists.
        let (mut i, mut j) = (0, 0);
        while i < self.segs.len() && j < other.segs.len() {
            let (a_iv, a_v) = &self.segs[i];
            let (b_iv, b_v) = &other.segs[j];
            if a_iv.overlaps(b_iv) && a_v != b_v {
                return false;
            }
            if a_iv.hi() < b_iv.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        true
    }

    /// The union `f ∪ g` of two compatible partial functions (used by tuple
    /// merge, paper §4.1: `(t1 + t2).v(A) = t1.v(A) ∪ t2.v(A)`).
    pub fn try_union(&self, other: &TemporalValue) -> Result<TemporalValue> {
        TemporalValue::from_segments(self.segs.iter().cloned().chain(other.segs.iter().cloned()))
    }

    /// The set of distinct values in the function's image.
    pub fn image(&self) -> BTreeSet<Value> {
        self.segs.iter().map(|(_, v)| v.clone()).collect()
    }

    /// For a time-valued function (`DOM ⊆ TT`): the image as a lifespan —
    /// "the set of times that t(A) maps to" (paper §4.4, dynamic TIME-SLICE).
    ///
    /// Errors if any value in the image is not a time value.
    pub fn image_lifespan(&self) -> Result<Lifespan> {
        let mut chronons = Vec::with_capacity(self.segs.len());
        for (_, v) in &self.segs {
            match v {
                Value::Time(t) => chronons.push(*t),
                other => {
                    return Err(HrdmError::IncomparableValues {
                        left: crate::domain::ValueKind::Time,
                        right: other.kind(),
                    })
                }
            }
        }
        Ok(Lifespan::from_chronons(chronons))
    }

    /// The set of times at which `pred` holds of the value — the engine
    /// behind SELECT-WHEN (paper §4.3).
    pub fn when<F>(&self, mut pred: F) -> Lifespan
    where
        F: FnMut(&Value) -> bool,
    {
        Lifespan::from_intervals(self.segs.iter().filter(|(_, v)| pred(v)).map(|(iv, _)| *iv))
    }

    /// The set of times at which both functions are defined and the ordering
    /// of their values satisfies `test` — the segment-wise engine behind
    /// θ-joins and attribute-to-attribute predicates. Runs over canonical
    /// segments (piecewise), never over individual chronons.
    pub fn when_compare<F>(&self, other: &TemporalValue, mut test: F) -> Result<Lifespan>
    where
        F: FnMut(std::cmp::Ordering) -> bool,
    {
        let mut hits = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.segs.len() && j < other.segs.len() {
            let (a_iv, a_v) = &self.segs[i];
            let (b_iv, b_v) = &other.segs[j];
            if let Some(piece) = a_iv.intersect(b_iv) {
                if test(a_v.try_cmp(b_v)?) {
                    hits.push(piece);
                }
            }
            if a_iv.hi() < b_iv.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        Ok(Lifespan::from_intervals(hits))
    }

    /// Iterates `(chronon, value)` pairs over the whole domain. Intended for
    /// small functions (tests, figures, snapshot semantics).
    pub fn iter_points(&self) -> impl Iterator<Item = (Chronon, &Value)> + '_ {
        self.segs
            .iter()
            .flat_map(|(iv, v)| iv.chronons().map(move |t| (t, v)))
    }
}

/// The segments of a restriction `f|_L` in canonical form: a two-pointer
/// walk over `f`'s segments and `L`'s runs that yields each overlap, merging
/// pieces that abut and carry equal values so the output stays maximal.
/// Built by [`TemporalValue::clipped`]. A clone continues from the same
/// position, so a caller can count a clone and then walk the original.
#[derive(Clone, Debug)]
pub struct ClippedSegments<'a> {
    segs: &'a [(Interval, Value)],
    runs: &'a [Interval],
    i: usize,
    j: usize,
    /// The piece being grown, not yet yielded.
    pending: Option<(Interval, &'a Value)>,
}

impl ClippedSegments<'_> {
    /// The next overlap of a segment with a run, before merging.
    fn next_piece(&mut self) -> Option<(Interval, usize)> {
        while self.i < self.segs.len() && self.j < self.runs.len() {
            let (seg, run) = (&self.segs[self.i].0, &self.runs[self.j]);
            let (i, piece) = (self.i, seg.intersect(run));
            if seg.hi() < run.hi() {
                self.i += 1;
            } else {
                self.j += 1;
            }
            if let Some(piece) = piece {
                return Some((piece, i));
            }
        }
        None
    }
}

impl<'a> Iterator for ClippedSegments<'a> {
    type Item = (Interval, &'a Value);

    fn next(&mut self) -> Option<(Interval, &'a Value)> {
        while let Some((piece, i)) = self.next_piece() {
            let v = &self.segs[i].1;
            match &mut self.pending {
                Some((last, last_v)) if last.adjacent(&piece) && *last_v == v => {
                    *last = last.hull(&piece);
                }
                pending => {
                    if let Some(done) = pending.replace((piece, v)) {
                        return Some(done);
                    }
                }
            }
        }
        self.pending.take()
    }
}

impl fmt::Debug for TemporalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for TemporalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segs.is_empty() {
            return f.write_str("⊥");
        }
        f.write_str("{")?;
        for (i, (iv, v)) in self.segs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{iv}→{v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salary() -> TemporalValue {
        // John's salary history: 25K on [1,4], 30K on [5,9], back to 25K on [12,14].
        TemporalValue::of(&[
            (1, 4, Value::Int(25_000)),
            (5, 9, Value::Int(30_000)),
            (12, 14, Value::Int(25_000)),
        ])
    }

    #[test]
    fn canonical_merges_adjacent_equal_values() {
        let f = TemporalValue::of(&[(1, 3, Value::Int(7)), (4, 6, Value::Int(7))]);
        assert_eq!(f.segment_count(), 1);
        assert_eq!(f.segments()[0].0, Interval::of(1, 6));
    }

    #[test]
    fn adjacent_different_values_stay_separate() {
        let f = salary();
        assert_eq!(f.segment_count(), 3);
    }

    #[test]
    fn overlapping_equal_values_merge() {
        let f = TemporalValue::from_segments(vec![
            (Interval::of(1, 5), Value::Int(7)),
            (Interval::of(3, 9), Value::Int(7)),
        ])
        .unwrap();
        assert_eq!(f.segments(), &[(Interval::of(1, 9), Value::Int(7))]);
    }

    #[test]
    fn conflicting_overlap_rejected() {
        let err = TemporalValue::from_segments(vec![
            (Interval::of(1, 5), Value::Int(7)),
            (Interval::of(5, 9), Value::Int(8)),
        ])
        .unwrap_err();
        assert_eq!(err, HrdmError::ConflictingSegments);
    }

    #[test]
    fn at_looks_up_values_and_undefined_gaps() {
        let f = salary();
        assert_eq!(f.at(Chronon::new(1)), Some(&Value::Int(25_000)));
        assert_eq!(f.at(Chronon::new(7)), Some(&Value::Int(30_000)));
        assert_eq!(f.at(Chronon::new(10)), None); // gap: fired
        assert_eq!(f.at(Chronon::new(13)), Some(&Value::Int(25_000))); // rehired
        assert_eq!(f.at(Chronon::new(0)), None);
        assert_eq!(f.at(Chronon::new(15)), None);
    }

    #[test]
    fn domain_reflects_gaps() {
        assert_eq!(salary().domain(), Lifespan::of(&[(1, 9), (12, 14)]));
        assert!(TemporalValue::empty().domain().is_empty());
    }

    #[test]
    fn constant_functions() {
        let span = Lifespan::of(&[(1, 3), (8, 9)]);
        let f = TemporalValue::constant(&span, Value::str("Codd"));
        assert!(f.is_constant());
        assert_eq!(f.constant_value(), Some(&Value::str("Codd")));
        assert_eq!(f.domain(), span);
        assert!(!salary().is_constant());
        assert_eq!(salary().constant_value(), None);
        // Vacuously constant.
        assert!(TemporalValue::empty().is_constant());
        assert_eq!(TemporalValue::empty().constant_value(), None);
    }

    #[test]
    fn restrict_clips_domain() {
        let f = salary();
        let clipped = f.restrict(&Lifespan::of(&[(3, 6), (13, 20)]));
        assert_eq!(
            clipped.segments(),
            &[
                (Interval::of(3, 4), Value::Int(25_000)),
                (Interval::of(5, 6), Value::Int(30_000)),
                (Interval::of(13, 14), Value::Int(25_000)),
            ]
        );
        assert_eq!(f.restrict(&Lifespan::empty()), TemporalValue::empty());
        assert_eq!(f.restrict(&f.domain()), f);
    }

    #[test]
    fn restrict_remerges_across_run_borders() {
        // A single segment split by a fragmented lifespan must stay canonical.
        let f = TemporalValue::of(&[(1, 10, Value::Int(1))]);
        let r = f.restrict(&Lifespan::of(&[(2, 3), (4, 6)])); // adjacent runs merge in the lifespan
        assert_eq!(r.segments(), &[(Interval::of(2, 6), Value::Int(1))]);
    }

    #[test]
    fn compatibility_and_union() {
        let a = TemporalValue::of(&[(1, 5, Value::Int(1))]);
        let b = TemporalValue::of(&[(4, 8, Value::Int(1))]);
        let c = TemporalValue::of(&[(4, 8, Value::Int(2))]);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
        assert_eq!(
            a.try_union(&b).unwrap(),
            TemporalValue::of(&[(1, 8, Value::Int(1))])
        );
        assert_eq!(a.try_union(&c).unwrap_err(), HrdmError::ConflictingSegments);
        // Disjoint domains always merge.
        let d = TemporalValue::of(&[(10, 12, Value::Int(9))]);
        assert_eq!(
            a.try_union(&d).unwrap().domain(),
            Lifespan::of(&[(1, 5), (10, 12)])
        );
    }

    #[test]
    fn image_and_when() {
        let f = salary();
        let img: Vec<Value> = f.image().into_iter().collect();
        assert_eq!(img, vec![Value::Int(25_000), Value::Int(30_000)]);
        // Paper §4.3's example: the times when John earned 30K.
        assert_eq!(
            f.when(|v| *v == Value::Int(30_000)),
            Lifespan::of(&[(5, 9)])
        );
        assert_eq!(f.when(|_| false), Lifespan::empty());
    }

    #[test]
    fn image_lifespan_for_time_valued_functions() {
        let f = TemporalValue::of(&[(1, 3, Value::time(10)), (4, 6, Value::time(12))]);
        assert_eq!(
            f.image_lifespan().unwrap(),
            Lifespan::of(&[(10, 10), (12, 12)])
        );
        let bad = TemporalValue::of(&[(1, 3, Value::Int(10))]);
        assert!(bad.image_lifespan().is_err());
    }

    #[test]
    fn iter_points_covers_domain() {
        let f = TemporalValue::of(&[(1, 2, Value::Int(5)), (4, 4, Value::Int(6))]);
        let pts: Vec<(i64, i64)> = f
            .iter_points()
            .map(|(t, v)| match v {
                Value::Int(i) => (t.tick(), *i),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pts, vec![(1, 5), (2, 5), (4, 6)]);
    }

    #[test]
    fn display_renders_segments() {
        let f = TemporalValue::of(&[(1, 4, Value::Int(25))]);
        assert_eq!(f.to_string(), "{[1,4]→25}");
        assert_eq!(TemporalValue::empty().to_string(), "⊥");
    }

    #[test]
    fn at_point_constructor() {
        let f = TemporalValue::at_point(5, Value::str("x"));
        assert_eq!(f.at(Chronon::new(5)), Some(&Value::str("x")));
        assert_eq!(f.domain().cardinality(), 1);
    }
}

//! Lifespans: arbitrary finite-description subsets of the time domain `T`.

use crate::{Chronon, Interval};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, Sub};

/// A lifespan `L ⊆ T`: "the periods of time during which the database models
/// the properties of an object" (paper, abstract & §2).
///
/// A lifespan is *any* subset of `T` — crucially it need not be contiguous,
/// which is what lets HRDM model **reincarnation** (employees re-hired,
/// attributes dropped from and later re-added to a schema, paper Fig. 6).
/// Since the paper restricts attention to closed intervals over a discrete
/// `T`, every lifespan arising in practice is a finite union of closed
/// intervals, and that is the representation used here.
///
/// # Canonical form
///
/// The intervals are kept sorted, pairwise disjoint, and *maximal* (no two
/// stored intervals overlap or abut). Consequences:
///
/// * structural equality coincides with set equality,
/// * the set operations `∪`, `∩`, `−` (paper §2 lists exactly these) are
///   linear two-pointer merges,
/// * [`Lifespan::intervals`] doubles as the succinct "representation level"
///   encoding of the span.
///
/// A lifespan of one run — every object never reincarnated — is stored
/// inline (24 bytes, no heap block); two or more runs live in one
/// exact-size heap slice.
///
/// The operators `|`, `&`, and `-` are overloaded as `∪`, `∩`, `−`.
#[derive(Clone, Default)]
pub struct Lifespan {
    runs: Runs,
}

/// The canonical run list, by how many runs it holds.
#[derive(Clone, Default)]
enum Runs {
    #[default]
    Empty,
    One(Interval),
    /// Two or more runs.
    Many(Box<[Interval]>),
}

impl Lifespan {
    /// The empty lifespan `∅` (an object the database never models).
    #[inline]
    pub fn empty() -> Lifespan {
        Lifespan { runs: Runs::Empty }
    }

    /// Wraps a run list already in canonical form.
    fn from_runs(runs: Vec<Interval>) -> Lifespan {
        let runs = match runs.len() {
            0 => Runs::Empty,
            1 => Runs::One(runs[0]),
            _ => Runs::Many(runs.into_boxed_slice()),
        };
        Lifespan { runs }
    }

    /// A single-interval lifespan `[lo, hi]` from raw ticks.
    ///
    /// Panics if `lo > hi`; use [`Lifespan::try_interval`] for fallible
    /// construction.
    pub fn interval(lo: i64, hi: i64) -> Lifespan {
        Lifespan::from(Interval::of(lo, hi))
    }

    /// A single-interval lifespan, `None` when `lo > hi`.
    pub fn try_interval(lo: Chronon, hi: Chronon) -> Option<Lifespan> {
        Interval::new(lo, hi).map(Lifespan::from)
    }

    /// The singleton lifespan `{t}`.
    pub fn point(t: impl Into<Chronon>) -> Lifespan {
        Lifespan::from(Interval::point(t.into()))
    }

    /// The lifespan `[start, now]` — the paper's `[t3, NOW]` pattern
    /// (Fig. 6): a period open-ended in spirit but, in a database that only
    /// records up to the current time, closed at `now`. `None` when
    /// `start > now` (nothing recorded yet).
    pub fn until_now(start: impl Into<Chronon>, now: impl Into<Chronon>) -> Option<Lifespan> {
        Lifespan::try_interval(start.into(), now.into())
    }

    /// Builds a lifespan from arbitrary intervals, normalizing to canonical
    /// form.
    pub fn from_intervals<I>(intervals: I) -> Lifespan
    where
        I: IntoIterator<Item = Interval>,
    {
        let mut runs: Vec<Interval> = intervals.into_iter().collect();
        normalize(&mut runs);
        Lifespan::from_runs(runs)
    }

    /// Builds a lifespan from `(lo, hi)` tick pairs. Panics on `lo > hi`.
    pub fn of(pairs: &[(i64, i64)]) -> Lifespan {
        Lifespan::from_intervals(pairs.iter().map(|&(lo, hi)| Interval::of(lo, hi)))
    }

    /// Builds a lifespan from individual chronons.
    pub fn from_chronons<I>(chronons: I) -> Lifespan
    where
        I: IntoIterator<Item = Chronon>,
    {
        Lifespan::from_intervals(chronons.into_iter().map(Interval::point))
    }

    /// The canonical run-list (sorted, disjoint, maximal intervals).
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        match &self.runs {
            Runs::Empty => &[],
            Runs::One(run) => std::slice::from_ref(run),
            Runs::Many(runs) => runs,
        }
    }

    /// Number of maximal intervals (fragmentation of the lifespan).
    #[inline]
    pub fn interval_count(&self) -> usize {
        self.intervals().len()
    }

    /// Is this the empty lifespan?
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.runs, Runs::Empty)
    }

    /// Is the lifespan a single connected interval (or empty)?
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        !matches!(self.runs, Runs::Many(_))
    }

    /// Number of chronons in the lifespan, saturating at `u64::MAX`.
    pub fn cardinality(&self) -> u64 {
        self.intervals()
            .iter()
            .fold(0u64, |acc, iv| acc.saturating_add(iv.len()))
    }

    /// Earliest chronon, if any (the object's "birth", paper §1).
    #[inline]
    pub fn first(&self) -> Option<Chronon> {
        self.intervals().first().map(|iv| iv.lo())
    }

    /// Latest chronon, if any (the object's most recent "death").
    #[inline]
    pub fn last(&self) -> Option<Chronon> {
        self.intervals().last().map(|iv| iv.hi())
    }

    /// Smallest interval covering the whole lifespan.
    pub fn hull(&self) -> Option<Interval> {
        match (self.first(), self.last()) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => None,
        }
    }

    /// Membership test `t ∈ L` (binary search over runs).
    pub fn contains(&self, t: Chronon) -> bool {
        self.intervals()
            .binary_search_by(|iv| {
                if iv.hi() < t {
                    std::cmp::Ordering::Less
                } else if iv.lo() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Subset test `other ⊆ self`, without allocating: one two-pointer
    /// walk over both run lists. Because the runs are maximal, a run of
    /// `other` is covered iff one single run of `self` contains it whole.
    pub fn contains_lifespan(&self, other: &Lifespan) -> bool {
        let mut mine = self.intervals().iter().peekable();
        other.intervals().iter().all(|run| {
            // Runs of `other` ascend, so runs of mine ending before this
            // one starts cannot cover any later run either.
            while mine.next_if(|r| r.hi() < run.lo()).is_some() {}
            mine.peek()
                .is_some_and(|r| r.lo() <= run.lo() && run.hi() <= r.hi())
        })
    }

    /// Do the two lifespans share at least one chronon?
    pub fn intersects(&self, other: &Lifespan) -> bool {
        // Two-pointer scan; cheaper than materializing the intersection.
        let (a, b) = (self.intervals(), other.intervals());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].overlaps(&b[j]) {
                return true;
            }
            if a[i].hi() < b[j].hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Does the lifespan share at least one chronon with the closed
    /// interval `iv`? Binary search over the runs — the allocation-free
    /// sibling of [`Lifespan::intersects`] for single-interval probes
    /// (partition summaries are probed once per partition per query).
    pub fn intersects_interval(&self, iv: &Interval) -> bool {
        // The first run ending at or after iv.lo is the only candidate
        // that can start early enough and still reach iv.
        let runs = self.intervals();
        let i = runs.partition_point(|r| r.hi() < iv.lo());
        match runs.get(i) {
            Some(r) => r.lo() <= iv.hi(),
            None => false,
        }
    }

    /// Subset test for a closed interval: `iv ⊆ self` without allocating.
    /// Because the runs are maximal, `iv` is contained iff one single run
    /// contains it whole.
    pub fn contains_interval(&self, iv: &Interval) -> bool {
        let runs = self.intervals();
        let i = runs.partition_point(|r| r.hi() < iv.hi());
        match runs.get(i) {
            Some(r) => r.lo() <= iv.lo() && iv.hi() <= r.hi(),
            None => false,
        }
    }

    /// Set union `L1 ∪ L2` (paper §2, operation 1).
    pub fn union(&self, other: &Lifespan) -> Lifespan {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (a, b) = (self.intervals(), other.intervals());
        // Two single runs that touch stay one inline run.
        if let ([x], [y]) = (a, b) {
            if let Some(run) = x.merge(y) {
                return Lifespan::from(run);
            }
        }
        let mut merged: Vec<Interval> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].lo() <= b[j].lo() {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        // Runs are sorted by lo; coalesce in place.
        let mut out: Vec<Interval> = Vec::with_capacity(merged.len());
        for iv in merged {
            match out.last_mut() {
                Some(last) if last.mergeable(&iv) => {
                    *last = last.merge(&iv).expect("mergeable intervals merge");
                }
                _ => out.push(iv),
            }
        }
        Lifespan::from_runs(out)
    }

    /// N-ary union `L1 ∪ … ∪ Ln`: every run collected, then sorted and
    /// coalesced **once** — O(m log m) in the total run count, where
    /// folding [`Lifespan::union`] re-merges the accumulator per operand.
    /// This is how `LS(r)` (and so `WHEN`) is computed.
    pub fn union_all<'a, I>(lifespans: I) -> Lifespan
    where
        I: IntoIterator<Item = &'a Lifespan>,
    {
        Lifespan::from_intervals(
            lifespans
                .into_iter()
                .flat_map(|l| l.intervals().iter().copied()),
        )
    }

    /// Set intersection `L1 ∩ L2` (paper §2, operation 2).
    pub fn intersect(&self, other: &Lifespan) -> Lifespan {
        let (a, b) = (self.intervals(), other.intervals());
        // Two single runs — the common case of slicing a contiguous tuple
        // by a window — intersect without touching the heap.
        if let ([x], [y]) = (a, b) {
            return x.intersect(y).map_or_else(Lifespan::empty, Lifespan::from);
        }
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if let Some(iv) = a[i].intersect(&b[j]) {
                out.push(iv);
            }
            if a[i].hi() < b[j].hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        Lifespan::from_runs(out)
    }

    /// Set difference `L1 − L2` (paper §2, operation 3).
    pub fn difference(&self, other: &Lifespan) -> Lifespan {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        let subtrahend = other.intervals();
        let mut out = Vec::new();
        let mut j = 0;
        for &run in self.intervals() {
            let mut current = Some(run);
            // Advance past subtrahend runs that end before this run starts.
            while j < subtrahend.len() && subtrahend[j].hi() < run.lo() {
                j += 1;
            }
            let mut k = j;
            while let (Some(cur), true) = (current, k < subtrahend.len()) {
                let sub = subtrahend[k];
                if sub.lo() > cur.hi() {
                    break;
                }
                let (left, right) = cur.difference(&sub);
                if let Some(l) = left {
                    out.push(l);
                }
                current = right;
                k += 1;
            }
            if let Some(rest) = current {
                out.push(rest);
            }
        }
        Lifespan::from_runs(out)
    }

    /// Symmetric difference `(L1 − L2) ∪ (L2 − L1)`.
    pub fn symmetric_difference(&self, other: &Lifespan) -> Lifespan {
        self.difference(other).union(&other.difference(self))
    }

    /// Complement within a bounded `universe` interval: `universe − self`.
    ///
    /// `T` itself is unbounded, so complement is only meaningful relative to a
    /// declared universe (e.g. the lifespan of a relation).
    pub fn complement_within(&self, universe: Interval) -> Lifespan {
        Lifespan::from(universe).difference(self)
    }

    /// Restricts the lifespan to `[lo, hi]` — a static TIME-SLICE at the
    /// lifespan level.
    pub fn clamp(&self, window: Interval) -> Lifespan {
        self.intersect(&Lifespan::from(window))
    }

    /// Translates the whole lifespan by `delta` ticks.
    pub fn shift(&self, delta: i64) -> Lifespan {
        Lifespan::from_runs(
            self.intervals()
                .iter()
                .map(|iv| {
                    Interval::new(iv.lo() + delta, iv.hi() + delta)
                        .expect("shift preserves ordering")
                })
                .collect(),
        )
    }

    /// Iterates every chronon in ascending order.
    ///
    /// Intended for small lifespans (tests, figures, model-level semantics);
    /// algebra code works on runs instead.
    pub fn iter(&self) -> LifespanIter<'_> {
        let runs = self.intervals();
        LifespanIter {
            runs,
            run_idx: 0,
            next: runs.first().map(|iv| iv.lo()),
        }
    }
}

impl PartialEq for Lifespan {
    fn eq(&self, other: &Lifespan) -> bool {
        self.intervals() == other.intervals()
    }
}

impl Eq for Lifespan {}

impl Hash for Lifespan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.intervals().hash(state);
    }
}

/// Iterator over the chronons of a [`Lifespan`] in ascending order.
pub struct LifespanIter<'a> {
    runs: &'a [Interval],
    run_idx: usize,
    next: Option<Chronon>,
}

impl Iterator for LifespanIter<'_> {
    type Item = Chronon;

    fn next(&mut self) -> Option<Chronon> {
        let current = self.next?;
        let run = self.runs[self.run_idx];
        self.next = if current < run.hi() {
            current.succ()
        } else {
            self.run_idx += 1;
            self.runs.get(self.run_idx).map(|iv| iv.lo())
        };
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mut remaining: u128 = 0;
        if let Some(next) = self.next {
            let run = self.runs[self.run_idx];
            remaining += (run.hi().tick() as i128 - next.tick() as i128 + 1) as u128;
            for iv in &self.runs[self.run_idx + 1..] {
                remaining += iv.len() as u128;
            }
        }
        let lower = usize::try_from(remaining).unwrap_or(usize::MAX);
        (lower, usize::try_from(remaining).ok())
    }
}

impl<'a> IntoIterator for &'a Lifespan {
    type Item = Chronon;
    type IntoIter = LifespanIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Chronon> for Lifespan {
    fn from_iter<I: IntoIterator<Item = Chronon>>(iter: I) -> Self {
        Lifespan::from_chronons(iter)
    }
}

impl FromIterator<Interval> for Lifespan {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        Lifespan::from_intervals(iter)
    }
}

impl From<Interval> for Lifespan {
    fn from(iv: Interval) -> Self {
        Lifespan {
            runs: Runs::One(iv),
        }
    }
}

impl BitOr for &Lifespan {
    type Output = Lifespan;
    fn bitor(self, rhs: &Lifespan) -> Lifespan {
        self.union(rhs)
    }
}

impl BitAnd for &Lifespan {
    type Output = Lifespan;
    fn bitand(self, rhs: &Lifespan) -> Lifespan {
        self.intersect(rhs)
    }
}

impl Sub for &Lifespan {
    type Output = Lifespan;
    fn sub(self, rhs: &Lifespan) -> Lifespan {
        self.difference(rhs)
    }
}

impl fmt::Debug for Lifespan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Lifespan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, iv) in self.intervals().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{iv}")?;
        }
        f.write_str("}")
    }
}

/// Sorts and coalesces an arbitrary interval list into canonical form.
fn normalize(runs: &mut Vec<Interval>) {
    if runs.len() <= 1 {
        return;
    }
    // Equal keys are equal intervals, so stability buys nothing.
    runs.sort_unstable_by_key(|iv| (iv.lo(), iv.hi()));
    let mut out: Vec<Interval> = Vec::with_capacity(runs.len());
    for iv in runs.drain(..) {
        match out.last_mut() {
            Some(last) if last.mergeable(&iv) => {
                *last = last.merge(&iv).expect("mergeable intervals merge");
            }
            _ => out.push(iv),
        }
    }
    *runs = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_merges_overlaps_and_adjacency() {
        let ls = Lifespan::of(&[(5, 8), (1, 3), (4, 4), (10, 12)]);
        // [1,3]+[4,4]+[5,8] coalesce into [1,8].
        assert_eq!(ls.intervals(), &[Interval::of(1, 8), Interval::of(10, 12)]);
        assert_eq!(ls.interval_count(), 2);
        assert!(!ls.is_contiguous());
    }

    #[test]
    fn empty_lifespan() {
        let e = Lifespan::empty();
        assert!(e.is_empty());
        assert_eq!(e.cardinality(), 0);
        assert_eq!(e.first(), None);
        assert_eq!(e.hull(), None);
        assert_eq!(e.to_string(), "{}");
        assert!(e.is_contiguous());
    }

    #[test]
    fn until_now_models_the_fig6_pattern() {
        let ls = Lifespan::until_now(5, 40).unwrap();
        assert_eq!(ls, Lifespan::interval(5, 40));
        // As NOW advances, the span extends.
        let later = Lifespan::until_now(5, 60).unwrap();
        assert!(later.contains_lifespan(&ls));
        // Nothing recorded yet.
        assert!(Lifespan::until_now(10, 5).is_none());
    }

    #[test]
    fn membership() {
        let ls = Lifespan::of(&[(1, 3), (7, 9)]);
        for t in [1, 2, 3, 7, 8, 9] {
            assert!(ls.contains(Chronon::new(t)), "missing {t}");
        }
        for t in [0, 4, 5, 6, 10] {
            assert!(!ls.contains(Chronon::new(t)), "spurious {t}");
        }
    }

    #[test]
    fn union_reincarnation_scenario() {
        // Paper Fig. 6: attribute recorded on [t1,t2], dropped, re-added at t3.
        let recorded = Lifespan::interval(1, 20);
        let re_added = Lifespan::interval(50, 100);
        let als = recorded.union(&re_added);
        assert_eq!(als.interval_count(), 2);
        assert!(als.contains(Chronon::new(10)));
        assert!(!als.contains(Chronon::new(30)));
        assert!(als.contains(Chronon::new(75)));
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let a = Lifespan::of(&[(1, 5), (10, 12)]);
        let b = Lifespan::of(&[(4, 11)]);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&a), a);
        assert_eq!(a.union(&Lifespan::empty()), a);
    }

    #[test]
    fn intersection_basics() {
        let a = Lifespan::of(&[(1, 5), (10, 15)]);
        let b = Lifespan::of(&[(3, 12)]);
        assert_eq!(a.intersect(&b), Lifespan::of(&[(3, 5), (10, 12)]));
        assert_eq!(a.intersect(&Lifespan::empty()), Lifespan::empty());
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn difference_basics() {
        let a = Lifespan::of(&[(1, 10)]);
        let b = Lifespan::of(&[(3, 4), (7, 8)]);
        assert_eq!(a.difference(&b), Lifespan::of(&[(1, 2), (5, 6), (9, 10)]));
        assert_eq!(a.difference(&a), Lifespan::empty());
        assert_eq!(a.difference(&Lifespan::empty()), a);
        assert_eq!(Lifespan::empty().difference(&a), Lifespan::empty());
    }

    #[test]
    fn difference_with_leading_and_trailing_subtrahends() {
        let a = Lifespan::of(&[(10, 20)]);
        let b = Lifespan::of(&[(1, 2), (12, 14), (30, 40)]);
        assert_eq!(a.difference(&b), Lifespan::of(&[(10, 11), (15, 20)]));
    }

    #[test]
    fn symmetric_difference() {
        let a = Lifespan::of(&[(1, 5)]);
        let b = Lifespan::of(&[(4, 8)]);
        assert_eq!(a.symmetric_difference(&b), Lifespan::of(&[(1, 3), (6, 8)]));
    }

    #[test]
    fn complement_within_universe() {
        let ls = Lifespan::of(&[(2, 3), (6, 7)]);
        let c = ls.complement_within(Interval::of(0, 9));
        assert_eq!(c, Lifespan::of(&[(0, 1), (4, 5), (8, 9)]));
        // complement is involutive within the universe
        assert_eq!(c.complement_within(Interval::of(0, 9)), ls);
    }

    #[test]
    fn clamp_is_static_timeslice() {
        let ls = Lifespan::of(&[(1, 5), (8, 12)]);
        assert_eq!(
            ls.clamp(Interval::of(4, 9)),
            Lifespan::of(&[(4, 5), (8, 9)])
        );
    }

    #[test]
    fn shift_translates() {
        let ls = Lifespan::of(&[(1, 3), (6, 8)]);
        assert_eq!(ls.shift(10), Lifespan::of(&[(11, 13), (16, 18)]));
        assert_eq!(ls.shift(-1), Lifespan::of(&[(0, 2), (5, 7)]));
    }

    #[test]
    fn subset_and_intersects() {
        let big = Lifespan::of(&[(1, 10), (20, 30)]);
        let small = Lifespan::of(&[(2, 4), (25, 25)]);
        assert!(big.contains_lifespan(&small));
        assert!(!small.contains_lifespan(&big));
        assert!(big.intersects(&small));
        assert!(!big.intersects(&Lifespan::interval(11, 19)));
        assert!(big.contains_lifespan(&Lifespan::empty()));
    }

    #[test]
    fn cardinality_sums_runs() {
        assert_eq!(Lifespan::of(&[(1, 3), (10, 10)]).cardinality(), 4);
    }

    #[test]
    fn iteration_order() {
        let ls = Lifespan::of(&[(1, 2), (5, 6)]);
        let got: Vec<i64> = ls.iter().map(|c| c.tick()).collect();
        assert_eq!(got, vec![1, 2, 5, 6]);
        assert_eq!(ls.iter().size_hint(), (4, Some(4)));
    }

    #[test]
    fn from_chronons_collects() {
        let ls: Lifespan = [3, 1, 2, 7].into_iter().map(Chronon::new).collect();
        assert_eq!(ls, Lifespan::of(&[(1, 3), (7, 7)]));
    }

    #[test]
    fn operator_sugar() {
        let a = Lifespan::interval(1, 5);
        let b = Lifespan::interval(4, 8);
        assert_eq!(&a | &b, Lifespan::interval(1, 8));
        assert_eq!(&a & &b, Lifespan::interval(4, 5));
        assert_eq!(&a - &b, Lifespan::interval(1, 3));
    }

    #[test]
    fn display_format() {
        let ls = Lifespan::of(&[(1, 3), (5, 5)]);
        assert_eq!(ls.to_string(), "{[1,3], [5]}");
    }

    /// The allocation-free interval probes agree with the lifespan-level
    /// operations across every small window.
    #[test]
    fn interval_probes_match_lifespan_operations() {
        let ls = Lifespan::of(&[(0, 4), (10, 15), (20, 20)]);
        for lo in -2..24 {
            for hi in lo..25 {
                let iv = Interval::of(lo, hi);
                let as_ls = Lifespan::interval(lo, hi);
                assert_eq!(
                    ls.intersects_interval(&iv),
                    ls.intersects(&as_ls),
                    "intersects [{lo},{hi}]"
                );
                assert_eq!(
                    ls.contains_interval(&iv),
                    ls.contains_lifespan(&as_ls),
                    "contains [{lo},{hi}]"
                );
            }
        }
        let empty = Lifespan::empty();
        assert!(!empty.intersects_interval(&Interval::of(0, 10)));
        assert!(!empty.contains_interval(&Interval::of(0, 0)));
    }
}

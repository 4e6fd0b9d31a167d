//! Property-based tests for `Lifespan`: every set operation is cross-checked
//! against a naive `BTreeSet<i64>` model on a bounded universe, and the
//! algebraic laws the paper relies on (it calls the semantics of the lifespan
//! operators "apparent" since "lifespans are just sets", §2) are machine-checked.

use hrdm_time::{Chronon, Interval, Lifespan};
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: std::ops::RangeInclusive<i64> = -50..=50;

fn to_set(ls: &Lifespan) -> BTreeSet<i64> {
    ls.iter().map(|c| c.tick()).collect()
}

fn from_set(s: &BTreeSet<i64>) -> Lifespan {
    s.iter().map(|&t| Chronon::new(t)).collect()
}

/// Strategy: an arbitrary lifespan within the bounded universe, built from up
/// to 8 (possibly overlapping, unsorted) intervals.
fn lifespan_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((UNIVERSE, 0i64..=12), 0..8).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, (lo + len).min(*UNIVERSE.end()))),
        )
    })
}

/// Strategy: a multi-run lifespan, the empty one, or a single chronon.
fn operand_strategy() -> impl Strategy<Value = Lifespan> {
    prop_oneof![
        lifespan_strategy(),
        Just(Lifespan::empty()),
        UNIVERSE.prop_map(Lifespan::point),
    ]
}

proptest! {
    #[test]
    fn union_matches_set_model(a in lifespan_strategy(), b in lifespan_strategy()) {
        let got = to_set(&a.union(&b));
        let want: BTreeSet<i64> = to_set(&a).union(&to_set(&b)).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn intersection_matches_set_model(a in lifespan_strategy(), b in lifespan_strategy()) {
        let got = to_set(&a.intersect(&b));
        let want: BTreeSet<i64> = to_set(&a).intersection(&to_set(&b)).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn difference_matches_set_model(a in lifespan_strategy(), b in lifespan_strategy()) {
        let got = to_set(&a.difference(&b));
        let want: BTreeSet<i64> = to_set(&a).difference(&to_set(&b)).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn symmetric_difference_matches_set_model(a in lifespan_strategy(), b in lifespan_strategy()) {
        let got = to_set(&a.symmetric_difference(&b));
        let want: BTreeSet<i64> =
            to_set(&a).symmetric_difference(&to_set(&b)).copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn roundtrip_through_chronons_is_identity(a in lifespan_strategy()) {
        prop_assert_eq!(from_set(&to_set(&a)), a);
    }

    #[test]
    fn canonical_form_invariants(a in lifespan_strategy(), b in lifespan_strategy()) {
        // Every op result must be in canonical form: sorted, disjoint, maximal.
        for ls in [a.union(&b), a.intersect(&b), a.difference(&b)] {
            let runs = ls.intervals();
            for w in runs.windows(2) {
                prop_assert!(w[0].hi() < w[1].lo(), "unsorted/overlapping: {:?}", runs);
                prop_assert!(
                    w[0].hi().succ() != Some(w[1].lo()),
                    "non-maximal (adjacent runs): {:?}",
                    runs
                );
            }
        }
    }

    #[test]
    fn cardinality_matches_model(a in lifespan_strategy()) {
        prop_assert_eq!(a.cardinality(), to_set(&a).len() as u64);
    }

    #[test]
    fn contains_matches_model(a in lifespan_strategy(), t in UNIVERSE) {
        prop_assert_eq!(a.contains(Chronon::new(t)), to_set(&a).contains(&t));
    }

    #[test]
    fn intersects_iff_nonempty_intersection(a in lifespan_strategy(), b in lifespan_strategy()) {
        prop_assert_eq!(a.intersects(&b), !a.intersect(&b).is_empty());
    }

    #[test]
    fn subset_test_matches_model(a in lifespan_strategy(), b in lifespan_strategy()) {
        prop_assert_eq!(
            a.contains_lifespan(&b),
            to_set(&b).is_subset(&to_set(&a))
        );
    }

    /// The allocation-free subset walk agrees with the intersect-based
    /// definition `other ∩ self = other` — over empty, single-chronon and
    /// multi-run operands, and over operands that are subsets by
    /// construction (two random lifespans rarely are).
    #[test]
    fn contains_lifespan_equals_the_intersect_definition(
        a in operand_strategy(),
        b in operand_strategy(),
        c in lifespan_strategy(),
    ) {
        for other in [b, a.intersect(&c), a.difference(&c), a.clone(), Lifespan::empty()] {
            prop_assert_eq!(a.contains_lifespan(&other), other.intersect(&a) == other);
            prop_assert_eq!(other.contains_lifespan(&a), a.intersect(&other) == a);
        }
    }

    /// The n-ary union (one sort-and-sweep) equals the left fold of the
    /// binary one, including over empty and single-chronon operands.
    #[test]
    fn union_all_equals_left_fold(
        ls in prop::collection::vec(operand_strategy(), 0..12)
    ) {
        let folded = ls.iter().fold(Lifespan::empty(), |acc, l| acc.union(l));
        prop_assert_eq!(Lifespan::union_all(&ls), folded);
    }

    // ---- Boolean-algebra laws the algebra layer leans on ----

    #[test]
    fn union_associative(a in lifespan_strategy(), b in lifespan_strategy(), c in lifespan_strategy()) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn intersection_distributes_over_union(
        a in lifespan_strategy(), b in lifespan_strategy(), c in lifespan_strategy()
    ) {
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
    }

    #[test]
    fn de_morgan_within_universe(a in lifespan_strategy(), b in lifespan_strategy()) {
        let u = Interval::of(*UNIVERSE.start(), *UNIVERSE.end());
        prop_assert_eq!(
            a.union(&b).complement_within(u),
            a.complement_within(u).intersect(&b.complement_within(u))
        );
    }

    #[test]
    fn difference_via_complement(a in lifespan_strategy(), b in lifespan_strategy()) {
        let u = Interval::of(*UNIVERSE.start(), *UNIVERSE.end());
        prop_assert_eq!(a.difference(&b), a.intersect(&b.complement_within(u)));
    }

    #[test]
    fn clamp_equals_intersection_with_window(a in lifespan_strategy(), lo in UNIVERSE, len in 0i64..20) {
        let window = Interval::of(lo, (lo + len).min(*UNIVERSE.end()));
        prop_assert_eq!(a.clamp(window), a.intersect(&Lifespan::from(window)));
    }

    #[test]
    fn shift_preserves_cardinality_and_gaps(a in lifespan_strategy(), d in -100i64..100) {
        let shifted = a.shift(d);
        prop_assert_eq!(shifted.cardinality(), a.cardinality());
        prop_assert_eq!(shifted.interval_count(), a.interval_count());
        prop_assert_eq!(shifted.shift(-d), a);
    }
}

//! Property tests for the model level: temporal values and tuples are
//! cross-checked against naive per-chronon models on a bounded universe.

use hrdm_core::algebra::{natural_join_pair, product_pair};
use hrdm_core::prelude::*;
use hrdm_core::{Concat, Projection};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};

const LO: i64 = 0;
const HI: i64 = 30;

/// Naive model of a partial function: chronon → value.
fn to_map(tv: &TemporalValue) -> BTreeMap<i64, Value> {
    tv.iter_points()
        .map(|(t, v)| (t.tick(), v.clone()))
        .collect()
}

/// Arbitrary temporal value over a small universe; segments kept disjoint by
/// construction.
fn temporal_strategy() -> impl Strategy<Value = TemporalValue> {
    prop::collection::vec((LO..=HI, 0i64..6, 0i64..4), 0..6).prop_map(|raw| {
        let mut segs = Vec::new();
        let mut cursor = LO;
        let mut sorted = raw;
        sorted.sort_by_key(|&(lo, _, _)| lo);
        for (lo, len, v) in sorted {
            let lo = lo.max(cursor);
            let hi = (lo + len).min(HI);
            if lo > HI || lo > hi {
                continue;
            }
            segs.push((Interval::of(lo, hi), Value::Int(v)));
            cursor = hi + 2;
        }
        TemporalValue::from_segments(segs).expect("disjoint by construction")
    })
}

fn lifespan_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((LO..=HI, 0i64..8), 0..4).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, (lo + len).min(HI))),
        )
    })
}

proptest! {
    #[test]
    fn at_matches_point_model(tv in temporal_strategy(), t in LO..=HI) {
        let model = to_map(&tv);
        prop_assert_eq!(tv.at(Chronon::new(t)), model.get(&t));
    }

    #[test]
    fn restrict_matches_point_model(tv in temporal_strategy(), ls in lifespan_strategy()) {
        let restricted = tv.restrict(&ls);
        let model: BTreeMap<i64, Value> = to_map(&tv)
            .into_iter()
            .filter(|(t, _)| ls.contains(Chronon::new(*t)))
            .collect();
        prop_assert_eq!(to_map(&restricted), model);
        // And the restriction is canonical: restricting again is identity.
        prop_assert_eq!(restricted.restrict(&ls), restricted);
    }

    #[test]
    fn domain_matches_point_model(tv in temporal_strategy()) {
        let model: Lifespan = to_map(&tv).keys().map(|&t| Chronon::new(t)).collect();
        prop_assert_eq!(tv.domain(), model);
    }

    #[test]
    fn try_union_agrees_with_map_union_when_compatible(
        a in temporal_strategy(),
        b in temporal_strategy(),
    ) {
        let (ma, mb) = (to_map(&a), to_map(&b));
        let compatible = ma
            .iter()
            .all(|(t, v)| mb.get(t).is_none_or(|w| w == v));
        prop_assert_eq!(a.compatible_with(&b), compatible);
        match a.try_union(&b) {
            Ok(u) => {
                prop_assert!(compatible);
                let mut merged = ma;
                merged.extend(mb);
                prop_assert_eq!(to_map(&u), merged);
            }
            Err(_) => prop_assert!(!compatible),
        }
    }

    #[test]
    fn when_matches_point_model(tv in temporal_strategy(), c in 0i64..4) {
        let want: Lifespan = to_map(&tv)
            .iter()
            .filter(|(_, v)| **v == Value::Int(c))
            .map(|(&t, _)| Chronon::new(t))
            .collect();
        prop_assert_eq!(tv.when(|v| *v == Value::Int(c)), want);
    }

    #[test]
    fn when_compare_matches_point_model(
        a in temporal_strategy(),
        b in temporal_strategy(),
    ) {
        let (ma, mb) = (to_map(&a), to_map(&b));
        let want: Lifespan = ma
            .iter()
            .filter_map(|(t, v)| {
                mb.get(t).and_then(|w| {
                    (v.try_cmp(w).unwrap() == std::cmp::Ordering::Less)
                        .then_some(Chronon::new(*t))
                })
            })
            .collect();
        let got = a
            .when_compare(&b, |ord| ord == std::cmp::Ordering::Less)
            .unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn segments_are_canonical(tv in temporal_strategy(), ls in lifespan_strategy()) {
        for f in [tv.clone(), tv.restrict(&ls)] {
            let segs = f.segments();
            for w in segs.windows(2) {
                let ((a, va), (b, vb)) = (&w[0], &w[1]);
                prop_assert!(a.hi() < b.lo(), "unsorted/overlap: {:?}", segs);
                // Maximality: adjacent segments must differ in value.
                if a.hi().succ() == Some(b.lo()) {
                    prop_assert_ne!(va, vb, "non-maximal: {:?}", segs);
                }
            }
        }
    }
}

// ---- tuple-level properties -------------------------------------------

fn scheme() -> Scheme {
    let era = Lifespan::interval(LO, HI);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tuple_strategy(key: i64) -> impl Strategy<Value = Tuple> {
    (lifespan_strategy(), temporal_strategy()).prop_map(move |(life, v)| {
        let s = scheme();
        let vls = life.intersect(s.als(&"V".into()).unwrap());
        Tuple::builder(life)
            .constant("K", key)
            .value("V", v.restrict(&vls))
            .finish(&s)
            .unwrap()
    })
}

/// `t|_L` rebuilt from parts, value by value: always a fresh allocation,
/// so comparing against it is a deep comparison.
fn rebuilt_restriction(t: &Tuple, window: &Lifespan) -> Tuple {
    let life = t.lifespan().intersect(window);
    let values = t
        .entries()
        .map(|(a, tv)| (a.clone(), tv.restrict(&life)))
        .collect();
    Tuple::from_parts(life, values)
}

/// Do two tuples share one allocation (rather than merely equal values)?
/// The lifespan lives inside the shared payload, so its address decides.
fn shares_allocation(a: &Tuple, b: &Tuple) -> bool {
    std::ptr::eq(a.lifespan(), b.lifespan())
}

proptest! {
    #[test]
    fn tuple_restrict_matches_pointwise(t in tuple_strategy(1), ls in lifespan_strategy()) {
        let r = t.restrict(&ls);
        prop_assert_eq!(r.lifespan(), &t.lifespan().intersect(&ls));
        for s in LO..=HI {
            let s = Chronon::new(s);
            let want = if ls.contains(s) { t.at(&"V".into(), s) } else { None };
            prop_assert_eq!(r.at(&"V".into(), s), want);
        }
        // Restriction preserves validity.
        prop_assert!(r.validate(&scheme()).is_ok());
    }

    #[test]
    fn merge_roundtrips_restriction(t in tuple_strategy(1), ls in lifespan_strategy()) {
        // Splitting a tuple by a lifespan and merging the halves restores it.
        let inside = t.restrict(&ls);
        let outside = t.restrict(&t.lifespan().difference(&ls));
        prop_assert!(inside.mergable(&outside, &scheme()) ||
            inside.key_values(&scheme()).is_err() ||
            outside.key_values(&scheme()).is_err());
        if inside.key_values(&scheme()).is_ok() && outside.key_values(&scheme()).is_ok() {
            let back = inside.merge(&outside).unwrap();
            prop_assert_eq!(back.lifespan(), t.lifespan());
            for s in LO..=HI {
                let s = Chronon::new(s);
                prop_assert_eq!(back.at(&"V".into(), s), t.at(&"V".into(), s));
            }
        }
    }

    #[test]
    fn mergable_tuples_merge_without_error(a in tuple_strategy(1), b in tuple_strategy(1)) {
        let s = scheme();
        if a.mergable(&b, &s) {
            let m = a.merge(&b).unwrap();
            prop_assert_eq!(m.lifespan(), &a.lifespan().union(b.lifespan()));
            // The merge extends both contributors.
            for src in [&a, &b] {
                for s in LO..=HI {
                    let s = Chronon::new(s);
                    if let Some(v) = src.at(&"V".into(), s) {
                        prop_assert_eq!(m.at(&"V".into(), s), Some(v));
                    }
                }
            }
        }
    }

    /// `LS(r)` is computed as one n-ary union; it must equal the paper's
    /// `t1.l ∪ t2.l ∪ … ∪ tn.l` taken as a left fold — on the empty
    /// relation and over empty and single-chronon tuple lifespans too.
    #[test]
    fn relation_lifespan_equals_left_fold(
        tuples in prop::collection::vec(tuple_strategy(1), 0..10),
        point in LO..=HI,
    ) {
        let s = scheme();
        let mut tuples = tuples;
        tuples.push(
            Tuple::builder(Lifespan::point(point))
                .constant("K", 99i64)
                .finish(&s)
                .unwrap(),
        );
        for n in [0, tuples.len() - 1, tuples.len()] {
            let r = Relation::from_parts_unchecked(s.clone(), tuples[..n].to_vec());
            let folded = r
                .iter()
                .fold(Lifespan::empty(), |acc, t| acc.union(t.lifespan()));
            prop_assert_eq!(r.lifespan(), folded);
        }
    }

    /// `Tuple::restrict`'s sharing fast path changes nothing observable:
    /// the result deep-equals the restriction rebuilt value by value — for
    /// arbitrary (multi-run) windows, for windows equal to `t.l` or
    /// covering it, for windows inside it, over values with holes — and it
    /// shares `t`'s allocation exactly when the window covers `t.l`.
    #[test]
    fn restrict_equals_the_rebuilt_restriction_and_shares_iff_covering(
        t in tuple_strategy(1),
        ls in lifespan_strategy(),
        pad in lifespan_strategy(),
    ) {
        let l = t.lifespan().clone();
        for window in [ls.clone(), l.clone(), l.union(&pad), l.intersect(&ls), Lifespan::empty()] {
            let fast = t.restrict(&window);
            prop_assert_eq!(&fast, &rebuilt_restriction(&t, &window), "window {}", window);
            prop_assert_eq!(
                shares_allocation(&fast, &t),
                window.contains_lifespan(&l),
                "window {} over t.l = {}", window, l
            );
        }
    }

    #[test]
    fn clipping_to_scheme_is_idempotent_and_validating(t in tuple_strategy(1)) {
        let s = scheme();
        let clipped = t.clipped_to_scheme(&s);
        prop_assert_eq!(&clipped.clipped_to_scheme(&s), &clipped);
        prop_assert!(clipped.validate(&s).is_ok());
    }

    #[test]
    fn vls_bounds_every_value(t in tuple_strategy(1)) {
        let s = scheme();
        let vls = t.vls(&s, &"V".into()).unwrap();
        let dom = t.value(&"V".into()).unwrap().domain();
        prop_assert!(vls.contains_lifespan(&dom));
    }
}

// ---- representation laws ----------------------------------------------
//
// A tuple stores its values by position against a sorted, shared layout.
// Whatever produced it — the builder, `from_parts`, restriction,
// projection, concatenation, merge — it must behave as the name-keyed map
// it replaced: `value(a)` is the map's lookup, `attributes()` its sorted
// keys, and equality and hashing see content, not layout allocations. A
// tuple caches its content hash, so equal tuples must hash alike also when
// one side was hashed before it was cloned or re-homed.

/// `wide(Z*, M, B, E)`, declared out of name order; `E` stays empty.
fn wide_scheme() -> Scheme {
    let era = Lifespan::interval(LO, HI);
    Scheme::builder()
        .key_attr("Z", ValueKind::Int, era.clone())
        .attr("M", HistoricalDomain::int(), era.clone())
        .attr("B", HistoricalDomain::int(), era.clone())
        .attr("E", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

/// A tuple on `scheme` (wide, or wide prefixed) from the builder, with the
/// name-keyed map it must behave as, computed from the inputs alone.
fn wide_strategy(
    prefix: Option<&'static str>,
) -> impl Strategy<Value = (Tuple, BTreeMap<Attribute, TemporalValue>)> {
    (
        lifespan_strategy(),
        temporal_strategy(),
        temporal_strategy(),
        0i64..4,
    )
        .prop_map(move |(life, m, b, z)| {
            let name = |n: &str| match prefix {
                Some(p) => Attribute::new(n).prefixed(p),
                None => Attribute::new(n),
            };
            let scheme = match prefix {
                Some(p) => wide_scheme().prefixed(p),
                None => wide_scheme(),
            };
            let (m, b) = (m.restrict(&life), b.restrict(&life));
            let t = Tuple::builder(life.clone())
                .value(name("B"), b.clone())
                .constant(name("Z"), z)
                .value(name("M"), m.clone())
                .finish(&scheme)
                .unwrap();
            let want = BTreeMap::from([
                (name("Z"), TemporalValue::constant(&life, Value::Int(z))),
                (name("M"), m),
                (name("B"), b),
                (name("E"), TemporalValue::empty()),
            ]);
            (t, want)
        })
}

fn model(t: &Tuple) -> BTreeMap<Attribute, TemporalValue> {
    t.entries().map(|(a, tv)| (a.clone(), tv.clone())).collect()
}

fn hash_of(t: &Tuple, keys: &RandomState) -> u64 {
    keys.hash_one(t)
}

/// `t` as a relation on `scheme` stores it: re-homed onto the scheme's
/// layout.
fn rehomed(t: Tuple, scheme: &Scheme) -> Tuple {
    let mut r = Relation::new(scheme.clone());
    r.push_unchecked(t);
    let home = r.iter().next().unwrap().clone();
    assert!(home.layout().same(scheme.layout()));
    home
}

/// The three laws, for `t` against the map `want`.
fn check_laws(t: &Tuple, want: &BTreeMap<Attribute, TemporalValue>) {
    let names: Vec<&Attribute> = t.attributes().collect();
    prop_assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "unsorted: {:?}",
        names
    );
    prop_assert_eq!(names, want.keys().collect::<Vec<_>>());
    prop_assert_eq!(t.entries().len(), want.len());
    let absent = ["A", "N", "ZZ", "p.A"].map(Attribute::new);
    for a in want.keys().chain(absent.iter()) {
        prop_assert_eq!(t.value(a), want.get(a), "value({})", a);
    }
    // The same content on a layout allocation of its own.
    let copy = Tuple::from_parts(t.lifespan().clone(), want.clone());
    prop_assert!(!copy.layout().same(t.layout()));
    prop_assert_eq!(&copy, t);
    // Hashed fresh on each side, then `t` again through a clone of its
    // cached hash, against the same content decoded onto `t`'s layout.
    let keys = RandomState::new();
    prop_assert_eq!(hash_of(&copy, &keys), hash_of(t, &keys));
    let values = want.values().cloned().collect();
    let decoded = Tuple::from_layout(t.lifespan().clone(), t.layout(), values).unwrap();
    prop_assert_eq!(&decoded, t);
    prop_assert_eq!(hash_of(&t.clone(), &keys), hash_of(&decoded, &keys));
    prop_assert_eq!(copy.to_string(), t.to_string());
}

/// [`check_laws`], plus: `t` and a copy of it on a layout of its own, the
/// copy hashed before it is re-homed onto `scheme`, hash alike.
fn check_laws_on(t: &Tuple, want: &BTreeMap<Attribute, TemporalValue>, scheme: &Scheme) {
    check_laws(t, want);
    let keys = RandomState::new();
    let copy = Tuple::from_parts(t.lifespan().clone(), want.clone());
    let early = hash_of(&copy, &keys);
    let home = rehomed(copy, scheme);
    prop_assert_eq!(&home, t);
    prop_assert_eq!(hash_of(&home, &keys), early);
    prop_assert_eq!(hash_of(t, &keys), early);
}

proptest! {
    #[test]
    fn builder_and_from_parts_tuples_behave_as_maps(case0 in wide_strategy(None)) {
        let (t, want) = case0;
        prop_assert!(t.layout().same(wide_scheme().layout()) || t.layout() == wide_scheme().layout());
        check_laws_on(&t, &want, &wide_scheme());
        check_laws(&Tuple::from_parts(t.lifespan().clone(), want.clone()), &want);
    }

    #[test]
    fn restricted_tuples_behave_as_maps(case0 in wide_strategy(None), ls in lifespan_strategy()) {
        let (t, want) = case0;
        let life = t.lifespan().intersect(&ls);
        let want: BTreeMap<_, _> = want.into_iter().map(|(a, tv)| (a, tv.restrict(&life))).collect();
        let r = t.restrict(&ls);
        prop_assert!(r.layout().same(t.layout()));
        check_laws_on(&r, &want, &wide_scheme());
        // Two separate restrictions are equal and hash alike, the first
        // hashed before the second exists.
        let keys = RandomState::new();
        let early = hash_of(&r, &keys);
        let again = Tuple::from_parts(t.lifespan().clone(), model(&t)).restrict(&ls);
        prop_assert_eq!(&again, &r);
        prop_assert_eq!(hash_of(&again, &keys), early);
    }

    #[test]
    fn projected_tuples_behave_as_maps(
        case0 in wide_strategy(None),
        case1 in wide_strategy(None),
        keep in prop::collection::vec(0usize..5, 0..5),
    ) {
        let (t, want) = case0;
        let (u, _) = case1;
        let universe = ["Z", "M", "B", "E", "Q"];
        let x: Vec<Attribute> = keep.iter().map(|&i| Attribute::new(universe[i])).collect();
        let want: BTreeMap<_, _> = want.into_iter().filter(|(a, _)| x.contains(a)).collect();
        check_laws(&t.project(&x), &want);
        // One operator over tuples on the scheme's layout, a copy on a
        // layout of its own, and a tuple naming fewer attributes.
        let projection = Projection::new(&x);
        let first = projection.apply(&t);
        check_laws(&first, &want);
        let second = projection.apply(&u);
        prop_assert!(second.layout().same(first.layout()));
        check_laws(&projection.apply(&Tuple::from_parts(t.lifespan().clone(), model(&t))), &want);
        let narrow = t.project(&[Attribute::new("M")]);
        let want_narrow: BTreeMap<_, _> = model(&narrow).into_iter().filter(|(a, _)| x.contains(a)).collect();
        check_laws(&projection.apply(&narrow), &want_narrow);
    }

    #[test]
    fn concatenated_tuples_behave_as_maps(
        case0 in wide_strategy(None),
        case1 in wide_strategy(Some("p")),
        case2 in wide_strategy(None),
    ) {
        let (t1, w1) = case0;
        let (t2, w2) = case1;
        let (t3, w3) = case2;
        // Product: disjoint names, every value on its own span.
        let concat = Concat::new();
        let mut want = w1.clone();
        want.extend(w2.clone());
        let p = product_pair(&t1, &t2, &concat);
        prop_assert_eq!(p.lifespan(), &t1.lifespan().union(t2.lifespan()));
        check_laws(&p, &want);
        prop_assert!(product_pair(&t3, &t2, &concat).layout().same(p.layout()));
        // Natural join: shared names, values restricted to the join span.
        if let Some(j) = natural_join_pair(&t1, &t3, &[Attribute::new("Z")], &Concat::new()).unwrap() {
            let l = j.lifespan().clone();
            let mut want = BTreeMap::new();
            for (a, tv) in w1.iter().chain(w3.iter()) {
                want.insert(a.clone(), tv.restrict(&l));
            }
            check_laws(&j, &want);
        }
    }

    #[test]
    fn merged_tuples_behave_as_maps(case0 in wide_strategy(None), case1 in wide_strategy(None)) {
        let (t1, w1) = case0;
        let (t2, w2) = case1;
        let narrow = t2.project(&[Attribute::new("Z"), Attribute::new("B")]);
        for (other, w_other) in [(&t2, w2.clone()), (&narrow, model(&narrow))] {
            let mut want = w1.clone();
            let mut contradicts = false;
            for (a, tv) in &w_other {
                match want.get(a).map(|mine| mine.try_union(tv)) {
                    Some(Ok(u)) => { want.insert(a.clone(), u); }
                    Some(Err(_)) => contradicts = true,
                    None => { want.insert(a.clone(), tv.clone()); }
                }
            }
            match t1.merge(other) {
                Ok(m) => {
                    prop_assert!(!contradicts);
                    check_laws(&m, &want);
                }
                Err(_) => prop_assert!(contradicts),
            }
        }
    }
}

/// Size tripwires: a tuple is one pointer; a temporal value one exact-size
/// slice; a lifespan keeps one run inline.
#[test]
fn representation_sizes() {
    assert_eq!(std::mem::size_of::<Tuple>(), 8);
    assert_eq!(std::mem::size_of::<TemporalValue>(), 16);
    assert!(std::mem::size_of::<Lifespan>() <= 24);
}

//! Shared generators and helpers for the workspace integration tests.
//!
//! Each test binary compiles this module independently and uses a subset of
//! the helpers, so unused-code lints are suppressed here.
#![allow(dead_code)]

use hrdm_core::prelude::*;
use proptest::prelude::*;

/// Universe of test time points.
pub const UNIVERSE: (i64, i64) = (0, 40);

/// The standard test scheme: `r(K*: int, V: int, W: int)` over the universe.
pub fn test_scheme() -> Scheme {
    let era = Lifespan::interval(UNIVERSE.0, UNIVERSE.1);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era.clone())
        .attr("W", HistoricalDomain::int(), era)
        .build()
        .expect("test scheme is well-formed")
}

/// A second scheme with disjoint attributes, for products and joins:
/// `s(K2*: int, X: int)`.
pub fn other_scheme() -> Scheme {
    let era = Lifespan::interval(UNIVERSE.0, UNIVERSE.1);
    Scheme::builder()
        .key_attr("K2", ValueKind::Int, era.clone())
        .attr("X", HistoricalDomain::int(), era)
        .build()
        .expect("test scheme is well-formed")
}

/// Strategy: an arbitrary lifespan within the universe.
pub fn lifespan_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((UNIVERSE.0..=UNIVERSE.1, 0i64..=10), 1..4).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, (lo + len).min(UNIVERSE.1))),
        )
    })
}

/// Strategy: a piecewise-constant int function, clipped to `within` at use.
pub fn segments_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((UNIVERSE.0..=UNIVERSE.1, 0i64..=8, 0i64..4), 0..4).prop_map(|raw| {
        // Make segments disjoint by sorting and clipping each to start
        // after the previous one ends.
        let mut segs: Vec<(i64, i64, i64)> = Vec::new();
        let mut cursor = UNIVERSE.0;
        let mut sorted = raw;
        sorted.sort_by_key(|&(lo, _, _)| lo);
        for (lo, len, v) in sorted {
            let lo = lo.max(cursor);
            let hi = (lo + len).min(UNIVERSE.1);
            if lo > UNIVERSE.1 || lo > hi {
                continue;
            }
            segs.push((lo, hi, v));
            cursor = hi + 2;
        }
        segs
    })
}

/// Builds a valid tuple on `scheme` with the given key, lifespan, and raw
/// segment data (clipped to `vls` per attribute).
#[allow(clippy::type_complexity)]
pub fn build_tuple(
    scheme: &Scheme,
    key_attr: &str,
    key: i64,
    life: &Lifespan,
    attr_segments: &[(&str, Vec<(i64, i64, i64)>)],
) -> Tuple {
    let mut b = Tuple::builder(life.clone()).constant(key_attr, key);
    for (attr, segs) in attr_segments {
        let tv = TemporalValue::of(
            &segs
                .iter()
                .map(|&(lo, hi, v)| (lo, hi, Value::Int(v)))
                .collect::<Vec<_>>(),
        );
        let vls = life.intersect(
            scheme
                .als(&Attribute::new(*attr))
                .expect("attribute exists in test scheme"),
        );
        b = b.value(*attr, tv.restrict(&vls));
    }
    b.finish(scheme).expect("generated tuple is valid")
}

/// Strategy: a valid relation on [`test_scheme`] with up to 5 tuples,
/// distinct keys.
pub fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec(
        (
            lifespan_strategy(),
            segments_strategy(),
            segments_strategy(),
        ),
        0..5,
    )
    .prop_map(|tuples| {
        let scheme = test_scheme();
        let built: Vec<Tuple> = tuples
            .into_iter()
            .enumerate()
            .map(|(i, (life, v, w))| {
                build_tuple(&scheme, "K", i as i64, &life, &[("V", v), ("W", w)])
            })
            .collect();
        Relation::with_tuples(scheme, built).expect("distinct keys by construction")
    })
}

/// Strategy: a valid relation on [`other_scheme`].
pub fn other_relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((lifespan_strategy(), segments_strategy()), 0..5).prop_map(|tuples| {
        let scheme = other_scheme();
        let built: Vec<Tuple> = tuples
            .into_iter()
            .enumerate()
            .map(|(i, (life, x))| build_tuple(&scheme, "K2", i as i64, &life, &[("X", x)]))
            .collect();
        Relation::with_tuples(scheme, built).expect("distinct keys by construction")
    })
}

/// Restricts every tuple to the region where **all** its attributes are
/// defined — the "total over `vls`" reading the paper's model level assumes.
/// Information-free tuples are dropped.
pub fn totalize(r: &Relation) -> Relation {
    let tuples: Vec<Tuple> = r
        .iter()
        .map(|t| {
            let mut defined = t.lifespan().clone();
            for (_, tv) in t.entries() {
                defined = defined.intersect(&tv.domain());
            }
            t.restrict(&defined)
        })
        .filter(|t| t.bears_information())
        .collect();
    Relation::with_tuples(r.scheme().clone(), tuples).expect("totalizing preserves keys")
}

/// Semantic equality of relations irrespective of attribute order in the
/// scheme: same attribute names with same ALS, same multiset of tuples.
pub fn semantically_equal(a: &Relation, b: &Relation) -> bool {
    use std::collections::BTreeMap;
    let names = |r: &Relation| -> BTreeMap<String, Lifespan> {
        r.scheme()
            .attrs()
            .iter()
            .map(|d| (d.name().name().to_string(), d.lifespan().clone()))
            .collect()
    };
    if names(a) != names(b) {
        return false;
    }
    let canon = |r: &Relation| -> Vec<String> {
        let mut rows: Vec<String> = r
            .iter()
            .map(|t| {
                let mut cells: Vec<String> = t
                    .entries()
                    .map(|(attr, tv)| format!("{attr}={tv}"))
                    .collect();
                cells.sort();
                format!("l={} {}", t.lifespan(), cells.join(" "))
            })
            .collect();
        rows.sort();
        rows
    };
    canon(a) == canon(b)
}

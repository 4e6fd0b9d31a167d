//! The object-based set operators `∪ₒ`, `∩ₒ`, `−ₒ` (paper §4.1).
//!
//! Fig. 11 of the paper shows that the plain tuple-set union of two
//! historical relations is "counter-intuitive": the same real-world object
//! can appear as two separate tuples, one per operand. The object-based
//! operators instead *merge* the tuples of corresponding objects:
//! merge-compatible schemes (same attributes, domains, **and key**), tuples
//! *mergable* when they share a key value and nowhere contradict each other.
//!
//! "t is *matched* in S if there is **some** tuple t' in S such that t is
//! mergable with t'" — and every mergable pair contributes. An operand the
//! plain set operators produced may hold several tuples sharing one key
//! (Fig. 11), so a tuple can be mergable with more than one partner; the
//! definitions below take all of them, which makes each result independent
//! of the order tuples are stored in.

use crate::errors::{HrdmError, Result};
use crate::relation::Relation;
use crate::scheme::Scheme;
use crate::tuple::Tuple;
use crate::value::Value;
use hrdm_time::Lifespan;
use std::collections::HashMap;

fn require_merge_compatible(r1: &Relation, r2: &Relation) -> Result<()> {
    if r1.scheme().merge_compatible(r2.scheme()) {
        Ok(())
    } else {
        Err(HrdmError::NotMergeCompatible)
    }
}

/// A relation's tuples filed by key value (in a keyless scheme every key
/// is the empty vector). Tuples without a key value can be mergable with
/// nothing and are left out.
fn by_key(r: &Relation) -> HashMap<Vec<Value>, Vec<&Tuple>> {
    let mut idx: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(r.len());
    for t in r.iter() {
        if let Ok(k) = t.key_values(r.scheme()) {
            idx.entry(k).or_default().push(t);
        }
    }
    idx
}

/// Every tuple of `idx` that `t` is mergable with.
fn partners<'a>(
    t: &Tuple,
    idx: &HashMap<Vec<Value>, Vec<&'a Tuple>>,
    scheme: &Scheme,
) -> Vec<&'a Tuple> {
    let candidates = match t.key_values(scheme) {
        Ok(key) => idx.get(&key).map_or(&[][..], Vec::as_slice),
        Err(_) => &[],
    };
    candidates
        .iter()
        .copied()
        .filter(|c| t.mergable(c, scheme))
        .collect()
}

/// What one mergable pair contributes to `r1 ∩ₒ r2`: a tuple over
/// `t1.l ∩ t2.l` carrying each value where *both* operands define it (the
/// function intersection; mergable tuples agree there), or `None` when the
/// lifespans are disjoint (an information-free tuple). Each operand's
/// values lie within its own attribute lifespans, so the result's lie
/// within `ALS1 ∩ ALS2`, the result scheme's — a merge restricted to
/// `t1.l ∩ t2.l` would keep one side's values where an evolved scheme
/// had ended the attribute on the other. The result shares `t1`'s layout.
pub fn intersection_o_pair(t1: &Tuple, t2: &Tuple) -> Option<Tuple> {
    let l = t1.lifespan().intersect(t2.lifespan());
    if l.is_empty() {
        return None;
    }
    let values = t1
        .entries()
        .map(|(a, tv)| {
            let both = t2
                .value(a)
                .map_or_else(Lifespan::empty, |o| o.domain().intersect(&l));
            tv.restrict(&both)
        })
        .collect();
    Tuple::from_layout(l, t1.layout(), values)
}

/// What one mergable pair contributes to `r1 −ₒ r2`: `t1` on
/// `t1.l − t2.l` with its values restricted, or `None` when nothing of it
/// survives.
pub fn difference_o_pair(t1: &Tuple, t2: &Tuple) -> Option<Tuple> {
    let l = t1.lifespan().difference(t2.lifespan());
    (!l.is_empty()).then(|| t1.restrict(&l))
}

/// `r1 ∪ₒ r2` — the object-based union (paper §4.1, the Fig. 11 `r1 + r2`):
///
/// * tuples of `r1` not matched in `r2` pass through,
/// * tuples of `r2` not matched in `r1` pass through,
/// * every mergable pair contributes its merge `t1 + t2`.
///
/// (The paper's text reads "t ∈ r2 and t is not matched in r2"; matching a
/// relation against itself is vacuous, so we read it as the evident typo for
/// `r1`.)
pub fn union_o(r1: &Relation, r2: &Relation) -> Result<Relation> {
    require_merge_compatible(r1, r2)?;
    let scheme = r1.scheme().combine_als(r2.scheme(), |a, b| a.union(b));
    let (idx1, idx2) = (by_key(r1), by_key(r2));
    let mut out: Vec<Tuple> = Vec::with_capacity(r1.len() + r2.len());
    for t1 in r1.iter() {
        let found = partners(t1, &idx2, r2.scheme());
        if found.is_empty() {
            out.push(t1.clone());
        }
        for t2 in found {
            out.push(t1.merge(t2)?);
        }
    }
    for t2 in r2.iter() {
        if partners(t2, &idx1, r1.scheme()).is_empty() {
            out.push(t2.clone());
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// `r1 ∩ₒ r2` — the object-based intersection: for each mergable pair, a
/// tuple over `t1.l ∩ t2.l` carrying the values the two agree on
/// ([`intersection_o_pair`]).
///
/// The paper's set-builder demands `t1.v(A)(s) = t2.v(A)(s) = t.v(A)(s)` for
/// all `s ∈ t.l`; where attribute lifespans make one side undefined at some
/// `s`, we take the function intersection (defined where **both** sides are
/// defined and equal), which coincides with the paper's condition whenever
/// values are total on the lifespan intersection. Pairs whose lifespan
/// intersection is empty contribute nothing (an information-free tuple).
pub fn intersection_o(r1: &Relation, r2: &Relation) -> Result<Relation> {
    require_merge_compatible(r1, r2)?;
    let scheme = r1.scheme().combine_als(r2.scheme(), |a, b| a.intersect(b));
    let idx2 = by_key(r2);
    let mut out = Vec::new();
    for t1 in r1.iter() {
        for t2 in partners(t1, &idx2, r2.scheme()) {
            out.extend(intersection_o_pair(t1, t2));
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// `r1 −ₒ r2` — the object-based difference:
///
/// * tuples of `r1` not matched in `r2` pass through,
/// * for each mergable pair, `t1` survives on `t1.l − t2.l` with its values
///   restricted (`t.v(A) = t1.v(A)|_{t.l}`, [`difference_o_pair`]).
pub fn difference_o(r1: &Relation, r2: &Relation) -> Result<Relation> {
    require_merge_compatible(r1, r2)?;
    let idx2 = by_key(r2);
    let mut out = Vec::new();
    for t1 in r1.iter() {
        let found = partners(t1, &idx2, r2.scheme());
        if found.is_empty() {
            out.push(t1.clone());
        }
        out.extend(found.into_iter().filter_map(|t2| difference_o_pair(t1, t2)));
    }
    Ok(Relation::from_parts_unchecked(r1.scheme().clone(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::setops::union;
    use crate::domain::ValueKind;
    use crate::scheme::Scheme;
    use crate::temporal::TemporalValue;
    use crate::HistoricalDomain;
    use hrdm_time::Chronon;

    fn scheme() -> Scheme {
        Scheme::builder()
            .key_attr("K", ValueKind::Str, Lifespan::interval(0, 100))
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .build()
            .unwrap()
    }

    fn tup(k: &str, spans: &[(i64, i64)], v: i64) -> Tuple {
        let s = scheme();
        let life = Lifespan::of(spans);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(v)))
            .finish(&s)
            .unwrap()
    }

    fn rel(tuples: Vec<Tuple>) -> Relation {
        Relation::with_tuples(scheme(), tuples).unwrap()
    }

    #[test]
    fn figure_11_union_vs_object_union() {
        // r1 knows object "a" on [0,5]; r2 knows "a" on [10,15].
        let r1 = rel(vec![tup("a", &[(0, 5)], 1)]);
        let r2 = rel(vec![tup("a", &[(10, 15)], 2)]);

        // Plain union: two tuples for one object — counter-intuitive.
        let plain = union(&r1, &r2).unwrap();
        assert_eq!(plain.len(), 2);
        assert!(plain.check_key_constraint().is_err());

        // Object union: one merged tuple with the full history.
        let merged = union_o(&r1, &r2).unwrap();
        assert_eq!(merged.len(), 1);
        assert!(merged.check_key_constraint().is_ok());
        let t = &merged.tuples()[0];
        assert_eq!(t.lifespan(), &Lifespan::of(&[(0, 5), (10, 15)]));
        assert_eq!(t.at(&"V".into(), Chronon::new(3)), Some(&Value::Int(1)));
        assert_eq!(t.at(&"V".into(), Chronon::new(12)), Some(&Value::Int(2)));
    }

    #[test]
    fn union_o_passes_unmatched_through() {
        let r1 = rel(vec![tup("a", &[(0, 5)], 1), tup("b", &[(0, 5)], 9)]);
        let r2 = rel(vec![tup("a", &[(10, 15)], 2), tup("c", &[(0, 5)], 7)]);
        let u = union_o(&r1, &r2).unwrap();
        assert_eq!(u.len(), 3); // a merged, b and c passed through
        assert!(u.find_by_key(&[Value::str("b")]).is_some());
        assert!(u.find_by_key(&[Value::str("c")]).is_some());
    }

    #[test]
    fn union_o_keeps_contradicting_tuples_separate() {
        // Same key, overlapping lifespans, different values: not mergable,
        // so both pass through (and the result violates the key constraint,
        // faithfully to the definition).
        let r1 = rel(vec![tup("a", &[(0, 5)], 1)]);
        let r2 = rel(vec![tup("a", &[(3, 8)], 2)]);
        let u = union_o(&r1, &r2).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.check_key_constraint().is_err());
    }

    #[test]
    fn intersection_o_keeps_agreed_overlap() {
        let r1 = rel(vec![tup("a", &[(0, 10)], 1)]);
        let r2 = rel(vec![tup("a", &[(5, 20)], 1)]);
        let i = intersection_o(&r1, &r2).unwrap();
        assert_eq!(i.len(), 1);
        let t = &i.tuples()[0];
        assert_eq!(t.lifespan(), &Lifespan::interval(5, 10));
        assert_eq!(t.at(&"V".into(), Chronon::new(7)), Some(&Value::Int(1)));
        let (t1, t2) = (&r1.tuples()[0], &r2.tuples()[0]);
        let pair = intersection_o_pair(t1, t2).unwrap();
        assert!(pair.layout().same(t1.layout()), "a layout of its own");
    }

    #[test]
    fn intersection_o_keeps_values_inside_both_attribute_lifespans() {
        // `V` ends at 5 in the second operand's (evolved) scheme.
        let ended = Scheme::builder()
            .key_attr("K", ValueKind::Str, Lifespan::interval(0, 100))
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 5))
            .build()
            .unwrap();
        let t2 = Tuple::builder(Lifespan::interval(0, 10))
            .constant("K", "a")
            .value(
                "V",
                TemporalValue::constant(&Lifespan::interval(0, 5), Value::Int(1)),
            )
            .finish(&ended)
            .unwrap();
        let r2 = Relation::with_tuples(ended, vec![t2]).unwrap();
        let i = intersection_o(&rel(vec![tup("a", &[(0, 10)], 1)]), &r2).unwrap();
        let t = &i.tuples()[0];
        t.validate(i.scheme()).unwrap();
        assert_eq!(t.lifespan(), &Lifespan::interval(0, 10));
        assert_eq!(t.at(&"V".into(), Chronon::new(5)), Some(&Value::Int(1)));
        assert_eq!(t.at(&"V".into(), Chronon::new(7)), None);
    }

    #[test]
    fn intersection_o_drops_disjoint_and_unmatched() {
        let r1 = rel(vec![tup("a", &[(0, 5)], 1), tup("b", &[(0, 5)], 2)]);
        let r2 = rel(vec![tup("a", &[(10, 15)], 1)]); // disjoint lifespans
        let i = intersection_o(&r1, &r2).unwrap();
        assert!(i.is_empty());
    }

    #[test]
    fn difference_o_subtracts_lifespans() {
        let r1 = rel(vec![tup("a", &[(0, 10)], 1)]);
        let r2 = rel(vec![tup("a", &[(4, 6)], 1)]);
        let d = difference_o(&r1, &r2).unwrap();
        assert_eq!(d.len(), 1);
        let t = &d.tuples()[0];
        assert_eq!(t.lifespan(), &Lifespan::of(&[(0, 3), (7, 10)]));
        // Values restricted to the surviving lifespan.
        assert_eq!(t.at(&"V".into(), Chronon::new(5)), None);
        assert_eq!(t.at(&"V".into(), Chronon::new(8)), Some(&Value::Int(1)));
    }

    #[test]
    fn difference_o_passes_unmatched_and_drops_consumed() {
        let r1 = rel(vec![tup("a", &[(0, 10)], 1), tup("b", &[(0, 10)], 2)]);
        let r2 = rel(vec![tup("a", &[(0, 10)], 1)]);
        let d = difference_o(&r1, &r2).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.find_by_key(&[Value::str("b")]).is_some());
    }

    #[test]
    fn merge_compatibility_required() {
        let other = Scheme::builder()
            .key_attr("K", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "V",
                HistoricalDomain::constant(ValueKind::Int),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap();
        let r1 = rel(vec![]);
        let r2 = Relation::new(other);
        assert_eq!(
            union_o(&r1, &r2).unwrap_err(),
            HrdmError::NotMergeCompatible
        );
        assert!(intersection_o(&r1, &r2).is_err());
        assert!(difference_o(&r1, &r2).is_err());
    }

    /// Key-sharing operands (a plain union's output): every mergable pair
    /// contributes, so the result does not depend on which of the tuples
    /// sharing a key happens to be stored last.
    #[test]
    fn key_sharing_operands_merge_with_every_partner() {
        let shared = union(
            &rel(vec![tup("a", &[(0, 5)], 1)]),
            &rel(vec![tup("a", &[(10, 15)], 2)]),
        )
        .unwrap();
        let reversed = Relation::from_parts_unchecked(scheme(), {
            let mut ts: Vec<Tuple> = shared.iter().cloned().collect();
            ts.reverse();
            ts
        });
        let probe = rel(vec![tup("a", &[(0, 15)], 1)]); // agrees with [0,5] only
        for r2 in [&shared, &reversed] {
            let u = union_o(&probe, r2).unwrap();
            // The merge with [0,5]; [10,15] contradicts the probe and stays.
            assert_eq!(u.len(), 2, "{u}");
            assert!(u.contains_tuple(&tup("a", &[(10, 15)], 2)));
            let d = difference_o(&probe, r2).unwrap();
            assert_eq!(d.len(), 1);
            assert_eq!(d.tuples()[0].lifespan(), &Lifespan::interval(6, 15));
            let i = intersection_o(&probe, r2).unwrap();
            assert_eq!(i.len(), 1);
            assert_eq!(i.tuples()[0].lifespan(), &Lifespan::interval(0, 5));
        }
        // Both sharing tuples are mergable with a probe that is silent on V
        // after chronon 5: the union holds one merge per partner.
        let sparse = rel(vec![tup("a", &[(0, 5)], 1)]);
        let u = union_o(&sparse, &shared).unwrap();
        assert_eq!(u.len(), 2, "{u}");
        assert!(u.iter().all(|t| t.lifespan().contains(Chronon::new(0))));
    }

    #[test]
    fn object_ops_reduce_to_plain_ops_on_disjoint_keys() {
        // With no shared objects, ∪ₒ behaves like ∪ on tuple sets.
        let r1 = rel(vec![tup("a", &[(0, 5)], 1)]);
        let r2 = rel(vec![tup("b", &[(3, 8)], 2)]);
        let uo = union_o(&r1, &r2).unwrap();
        let u = union(&r1, &r2).unwrap();
        assert_eq!(uo, u);
        assert!(intersection_o(&r1, &r2).unwrap().is_empty());
        assert_eq!(difference_o(&r1, &r2).unwrap(), r1);
    }
}

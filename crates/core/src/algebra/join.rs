//! The JOIN family: θ-JOIN, EQUIJOIN, NATURAL-JOIN, TIME-JOIN (paper §4.6).
//!
//! All intersection-flavored joins share one shape: pair up tuples, compute
//! the lifespan on which the join condition relates their values, and — if
//! that lifespan is non-empty — emit the concatenation of both tuples
//! *restricted to it*. Because the result lifespan is where the condition
//! actually holds, "no nulls result; the JOIN of two tuples was defined only
//! over their lifespan intersection" (paper §5). The union-flavored variant
//! the paper sketches in §5 (`SELECT-IF` over the product, with nulls) is
//! provided as [`theta_join_union`].

use crate::algebra::predicate::Comparator;
use crate::attribute::Attribute;
use crate::errors::{HrdmError, Result};
use crate::relation::Relation;
use crate::temporal::TemporalValue;
use crate::tuple::{Concat, Tuple};
use hrdm_time::Lifespan;

/// `r1 JOIN r2 [A θ B]` (paper §4.6): attribute sets must be disjoint; each
/// pair `(t1, t2)` joins over `l = { s | t1(A)(s) θ t2(B)(s) }` — the times
/// both values are defined and θ-related — with every attribute of the
/// result restricted to `l`.
pub fn theta_join(
    r1: &Relation,
    r2: &Relation,
    a: &Attribute,
    op: Comparator,
    b: &Attribute,
) -> Result<Relation> {
    // Validate the join attributes up front (types + existence).
    let ka = r1.scheme().dom(a)?.kind();
    let kb = r2.scheme().dom(b)?.kind();
    if !ka.comparable_with(kb) {
        return Err(HrdmError::IncomparableValues {
            left: ka,
            right: kb,
        });
    }
    let scheme = r1.scheme().disjoint_concat(r2.scheme())?;
    let mut out = Vec::new();
    let concat = Concat::new();
    for t1 in r1.iter() {
        for t2 in r2.iter() {
            if let Some(joined) = theta_join_pair(t1, t2, a, op, b, &concat)? {
                out.push(joined);
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// Joins one `(t1, t2)` pair as θ-JOIN does: the result exists on the
/// times `t1(A) θ t2(B)` holds and is `None` when that lifespan is empty.
/// The exact per-pair semantics of [`theta_join`], shared with the
/// streaming executor's build/probe join. Every pair of one operator goes
/// through its one `concat`, which derives the output layout once.
pub fn theta_join_pair(
    t1: &Tuple,
    t2: &Tuple,
    a: &Attribute,
    op: Comparator,
    b: &Attribute,
    concat: &Concat,
) -> Result<Option<Tuple>> {
    let empty = TemporalValue::empty();
    let f = t1.value(a).unwrap_or(&empty);
    let g = t2.value(b).unwrap_or(&empty);
    let l = f.when_compare(g, |ord| op.test(ord))?;
    Ok((!l.is_empty()).then(|| concat.restricted(t1, t2, l)))
}

/// `r1 [A = B] r2` — "just a special case of the general θ-JOIN" (paper
/// §4.6) with θ as equality; in the result `t.v(A) = t.v(B)` holds over the
/// whole tuple lifespan by construction.
pub fn equijoin(r1: &Relation, r2: &Relation, a: &Attribute, b: &Attribute) -> Result<Relation> {
    theta_join(r1, r2, a, Comparator::Eq, b)
}

/// `r1 NATURAL-JOIN r2` (paper §4.6): pairs join over the times **all**
/// common attributes are defined and equal on both sides; the common
/// attributes appear once in the result ("just a projection of the
/// equijoin"). With no common attributes this degenerates — as in the
/// classical algebra — to a product over the lifespan intersection.
pub fn natural_join(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let common: Vec<Attribute> = r1
        .scheme()
        .attr_names()
        .filter(|a| r2.scheme().contains(a))
        .cloned()
        .collect();
    let scheme = r1.scheme().natural_concat(r2.scheme())?;
    let mut out = Vec::new();
    let concat = Concat::new();
    for t1 in r1.iter() {
        for t2 in r2.iter() {
            if let Some(joined) = natural_join_pair(t1, t2, &common, &concat)? {
                out.push(joined);
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// Joins one `(t1, t2)` pair as NATURAL-JOIN does: the result exists on the
/// times both tuples are alive and agree on every attribute of `common`,
/// and is `None` when that lifespan is empty.
///
/// This is the exact per-pair semantics of [`natural_join`], exposed so
/// the streaming executor's build/probe join (probing a key table or
/// index for candidate partners instead of scanning) reuses it unchanged.
pub fn natural_join_pair(
    t1: &Tuple,
    t2: &Tuple,
    common: &[Attribute],
    concat: &Concat,
) -> Result<Option<Tuple>> {
    let empty = TemporalValue::empty();
    let mut l = t1.lifespan().intersect(t2.lifespan());
    for attr in common {
        if l.is_empty() {
            break;
        }
        let f = t1.value(attr).unwrap_or(&empty);
        let g = t2.value(attr).unwrap_or(&empty);
        l = l.intersect(&f.when_compare(g, |ord| ord == std::cmp::Ordering::Equal)?);
    }
    if l.is_empty() {
        Ok(None)
    } else {
        Ok(Some(concat.restricted(t1, t2, l)))
    }
}

/// `r1 [@A] r2` — TIME-JOIN at time-valued attribute `A` of `r1` (paper
/// §4.6): "essentially … a join of dynamic TIME-SLICEs of both relations".
/// Each pair joins over `l = t1.l ∩ t2.l ∩ image(t1(A))` — the times both
/// tuples are alive that the time-valued attribute actually points at.
///
/// (The paper's closing formula is lost to the source scan; this is the
/// reconstruction implied by its prose definition, and it reduces to the
/// dynamic TIME-SLICE of `r1` when `r2`'s tuples span all of `T`.)
pub fn time_join(r1: &Relation, r2: &Relation, a: &Attribute) -> Result<Relation> {
    let dom = r1.scheme().dom(a)?;
    if !dom.is_time_valued() {
        return Err(HrdmError::NotTimeValued(a.clone()));
    }
    let scheme = r1.scheme().disjoint_concat(r2.scheme())?;
    let mut out = Vec::new();
    let concat = Concat::new();
    for t1 in r1.iter() {
        let image = match t1.value(a) {
            Some(tv) => tv.image_lifespan()?,
            None => Lifespan::empty(),
        };
        let window = t1.lifespan().intersect(&image);
        if window.is_empty() {
            continue;
        }
        for t2 in r2.iter() {
            if let Some(joined) = time_join_pair(t1, t2, &window, &concat) {
                out.push(joined);
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// Joins one `(t1, t2)` pair as TIME-JOIN does, for `t1`'s precomputed
/// `window = t1.l ∩ image` (`image` being the image of its time-valued join
/// attribute): the result exists on `window ∩ t2.l` and is `None` when that
/// lifespan is empty. The window is computed once per `t1`, not per pair.
///
/// The exact per-pair semantics of [`time_join`], exposed so the streaming
/// executor's build/probe join (probing a lifespan index with the same
/// window for candidate partners) reuses it unchanged.
pub fn time_join_pair(t1: &Tuple, t2: &Tuple, window: &Lifespan, concat: &Concat) -> Option<Tuple> {
    let l = window.intersect(t2.lifespan());
    if l.is_empty() {
        None
    } else {
        Some(concat.restricted(t1, t2, l))
    }
}

/// The union-flavored θ-join of paper §5: pairs whose values are θ-related
/// at **some** time are kept whole, over `t1.l ∪ t2.l`, values unrestricted
/// — "essentially equivalent to a SELECT-IF of the Cartesian product; a
/// resulting tuple will have null values for times outside of its
/// contributing tuples' lifespans".
pub fn theta_join_union(
    r1: &Relation,
    r2: &Relation,
    a: &Attribute,
    op: Comparator,
    b: &Attribute,
) -> Result<Relation> {
    let ka = r1.scheme().dom(a)?.kind();
    let kb = r2.scheme().dom(b)?.kind();
    if !ka.comparable_with(kb) {
        return Err(HrdmError::IncomparableValues {
            left: ka,
            right: kb,
        });
    }
    let scheme = r1.scheme().disjoint_concat(r2.scheme())?;
    let empty = TemporalValue::empty();
    let mut out = Vec::new();
    let concat = Concat::new();
    for t1 in r1.iter() {
        let f = t1.value(a).unwrap_or(&empty);
        for t2 in r2.iter() {
            let g = t2.value(b).unwrap_or(&empty);
            let holds_somewhere = !f.when_compare(g, |ord| op.test(ord))?.is_empty();
            if holds_somewhere {
                let l = t1.lifespan().union(t2.lifespan());
                out.push(concat.unrestricted(t1, t2, l));
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::product::null_volume;
    use crate::domain::{HistoricalDomain, ValueKind};
    use crate::scheme::Scheme;
    use crate::value::Value;
    use crate::Tuple;
    use hrdm_time::{Chronon, Lifespan};

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "DEPT",
                HistoricalDomain::string(),
                Lifespan::interval(0, 100),
            )
            .attr(
                "SALARY",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap()
    }

    fn dept_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("DNAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "BUDGET",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap()
    }

    fn emp(name: &str, span: (i64, i64), dept: &[(i64, i64, &str)], salary: i64) -> Tuple {
        let life = Lifespan::interval(span.0, span.1);
        Tuple::builder(life.clone())
            .constant("NAME", name)
            .value(
                "DEPT",
                TemporalValue::of(
                    &dept
                        .iter()
                        .map(|&(lo, hi, d)| (lo, hi, Value::str(d)))
                        .collect::<Vec<_>>(),
                ),
            )
            .value("SALARY", TemporalValue::constant(&life, Value::Int(salary)))
            .finish(&emp_scheme())
            .unwrap()
    }

    fn dept(name: &str, span: (i64, i64), budget: i64) -> Tuple {
        let life = Lifespan::interval(span.0, span.1);
        Tuple::builder(life.clone())
            .constant("DNAME", name)
            .value("BUDGET", TemporalValue::constant(&life, Value::Int(budget)))
            .finish(&dept_scheme())
            .unwrap()
    }

    fn emps() -> Relation {
        Relation::with_tuples(
            emp_scheme(),
            vec![
                emp("John", (0, 20), &[(0, 10, "Toys"), (11, 20, "Shoes")], 25),
                emp("Mary", (5, 30), &[(5, 30, "Toys")], 30),
            ],
        )
        .unwrap()
    }

    fn depts() -> Relation {
        Relation::with_tuples(
            dept_scheme(),
            vec![dept("Toys", (0, 30), 100), dept("Shoes", (8, 25), 50)],
        )
        .unwrap()
    }

    #[test]
    fn equijoin_joins_on_matching_spans() {
        let j = equijoin(&emps(), &depts(), &"DEPT".into(), &"DNAME".into()).unwrap();
        // John×Toys over [0,10], John×Shoes over [11,20], Mary×Toys over [5,30].
        assert_eq!(j.len(), 3);
        let john_toys = j
            .iter()
            .find(|t| t.at(&"NAME".into(), Chronon::new(0)) == Some(&Value::str("John")))
            .unwrap();
        assert_eq!(john_toys.lifespan(), &Lifespan::interval(0, 10));
        // Both join attributes are kept, equal over the lifespan.
        assert_eq!(
            john_toys.at(&"DEPT".into(), Chronon::new(5)),
            john_toys.at(&"DNAME".into(), Chronon::new(5))
        );
        // No nulls anywhere (paper §5).
        assert_eq!(null_volume(&j), 0);
    }

    #[test]
    fn equijoin_is_theta_join_with_eq() {
        let a = equijoin(&emps(), &depts(), &"DEPT".into(), &"DNAME".into()).unwrap();
        let b = theta_join(
            &emps(),
            &depts(),
            &"DEPT".into(),
            Comparator::Eq,
            &"DNAME".into(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn theta_join_with_inequality() {
        // SALARY < BUDGET: John(25) < Toys(100) and < Shoes(50); Mary(30) likewise.
        let j = theta_join(
            &emps(),
            &depts(),
            &"SALARY".into(),
            Comparator::Lt,
            &"BUDGET".into(),
        )
        .unwrap();
        assert_eq!(j.len(), 4);
        // Each joined tuple lives on the lifespan intersection (values are
        // constants, so θ holds wherever both are defined).
        let john_shoes = j
            .iter()
            .find(|t| {
                t.at(&"NAME".into(), Chronon::new(8)) == Some(&Value::str("John"))
                    && t.at(&"DNAME".into(), Chronon::new(8)) == Some(&Value::str("Shoes"))
            })
            .unwrap();
        assert_eq!(john_shoes.lifespan(), &Lifespan::interval(8, 20));
    }

    #[test]
    fn theta_join_requires_comparable_kinds_and_disjoint_attrs() {
        assert!(matches!(
            theta_join(
                &emps(),
                &depts(),
                &"NAME".into(),
                Comparator::Eq,
                &"BUDGET".into()
            ),
            Err(HrdmError::IncomparableValues { .. })
        ));
        let self_join = theta_join(
            &emps(),
            &emps(),
            &"SALARY".into(),
            Comparator::Eq,
            &"SALARY".into(),
        );
        assert!(matches!(
            self_join,
            Err(HrdmError::AttributesNotDisjoint(_))
        ));
    }

    #[test]
    fn natural_join_on_common_attribute() {
        // Rename DNAME to DEPT so the schemes share an attribute.
        let dscheme = Scheme::builder()
            .key_attr("DEPT", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "BUDGET",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap();
        // DEPT as key must be constant; "Toys" department.
        let toys = Tuple::builder(Lifespan::interval(0, 30))
            .constant("DEPT", "Toys")
            .value(
                "BUDGET",
                TemporalValue::constant(&Lifespan::interval(0, 30), Value::Int(100)),
            )
            .finish(&dscheme)
            .unwrap();
        let depts = Relation::with_tuples(dscheme, vec![toys]).unwrap();

        let j = natural_join(&emps(), &depts).unwrap();
        // John matches Toys on [0,10]; Mary on [5,30]. DEPT appears once.
        assert_eq!(j.len(), 2);
        assert_eq!(j.scheme().arity(), 4); // NAME, DEPT, SALARY, BUDGET
        let john = j
            .iter()
            .find(|t| t.at(&"NAME".into(), Chronon::new(0)).is_some())
            .unwrap();
        assert_eq!(john.lifespan(), &Lifespan::interval(0, 10));
        assert_eq!(
            john.at(&"DEPT".into(), Chronon::new(5)),
            Some(&Value::str("Toys"))
        );
        assert_eq!(
            john.at(&"BUDGET".into(), Chronon::new(5)),
            Some(&Value::Int(100))
        );
    }

    #[test]
    fn natural_join_without_common_attrs_is_intersection_product() {
        let j = natural_join(&emps(), &depts()).unwrap();
        // Every emp×dept pair restricted to lifespan intersection.
        assert_eq!(j.len(), 4);
        for t in j.iter() {
            assert!(!t.lifespan().is_empty());
        }
    }

    #[test]
    fn time_join_slices_by_image() {
        // Emp scheme with a time-valued HIRED attribute pointing at the
        // hire chronon; joining on it pairs each employee with the
        // departments alive at the times the attribute points to.
        let scheme = Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "HIRED",
                HistoricalDomain::time(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap();
        let life = Lifespan::interval(0, 30);
        let t = Tuple::builder(life.clone())
            .constant("NAME", "John")
            .value("HIRED", TemporalValue::constant(&life, Value::time(9)))
            .finish(&scheme)
            .unwrap();
        let r1 = Relation::with_tuples(scheme, vec![t]).unwrap();
        let j = time_join(&r1, &depts(), &"HIRED".into()).unwrap();
        // image = {9}; both Toys [0,30] and Shoes [8,25] are alive at 9.
        assert_eq!(j.len(), 2);
        for t in j.iter() {
            assert_eq!(t.lifespan(), &Lifespan::of(&[(9, 9)]));
        }
    }

    #[test]
    fn time_join_requires_tt_attribute() {
        assert!(matches!(
            time_join(&emps(), &depts(), &"SALARY".into()),
            Err(HrdmError::NotTimeValued(_))
        ));
    }

    #[test]
    fn union_join_keeps_whole_lifespans_with_nulls() {
        let j = theta_join_union(
            &emps(),
            &depts(),
            &"DEPT".into(),
            Comparator::Eq,
            &"DNAME".into(),
        )
        .unwrap();
        assert_eq!(j.len(), 3); // same pairs as the equijoin…
        let john_toys = j
            .iter()
            .find(|t| {
                t.at(&"NAME".into(), Chronon::new(0)) == Some(&Value::str("John"))
                    && t.at(&"DNAME".into(), Chronon::new(0)) == Some(&Value::str("Toys"))
            })
            .unwrap();
        // …but over the union of lifespans, with nulls (paper §5).
        assert_eq!(john_toys.lifespan(), &Lifespan::interval(0, 30));
        assert!(null_volume(&j) > 0);
    }

    #[test]
    fn joins_with_empty_operand_are_empty() {
        let empty = Relation::new(dept_scheme());
        assert!(equijoin(&emps(), &empty, &"DEPT".into(), &"DNAME".into())
            .unwrap()
            .is_empty());
        assert!(natural_join(&emps(), &empty).unwrap().is_empty());
    }
}

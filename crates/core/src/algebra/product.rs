//! Cartesian product — and the null-vs-lifespan trade-off of paper §5.
//!
//! The paper defines the product so that "resulting tuples are defined over
//! the **union** of the lifespans of the participating tuples, and thus
//! potentially contain null values" (§5): inside the combined lifespan, the
//! attributes inherited from one operand are undefined at times only the
//! other operand's tuple was alive. The JOINs, by contrast, intersect
//! lifespans and are null-free. [`null_volume`] measures exactly that cost.

use crate::errors::Result;
use crate::relation::Relation;
use crate::tuple::{Concat, Tuple};

/// `r1 × r2` (paper §4.1/§5): schemes must have disjoint attribute sets; each
/// result tuple pairs `t1` and `t2` with lifespan `t1.l ∪ t2.l` and each
/// value kept on its own original span (so the result *contains nulls* —
/// undefined stretches — wherever only one contributor was alive).
pub fn cartesian_product(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let scheme = r1.scheme().disjoint_concat(r2.scheme())?;
    let mut out = Vec::with_capacity(r1.len() * r2.len());
    let concat = Concat::new();
    for t1 in r1.iter() {
        for t2 in r2.iter() {
            out.push(product_pair(t1, t2, &concat));
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// The product of one `(t1, t2)` pair: lifespan `t1.l ∪ t2.l`, each value
/// on its own span. The per-pair semantics of [`cartesian_product`], shared
/// with the streaming executor; `concat` is the operator's one
/// concatenation, which derives the output layout once.
pub fn product_pair(t1: &Tuple, t2: &Tuple, concat: &Concat) -> Tuple {
    concat.unrestricted(t1, t2, t1.lifespan().union(t2.lifespan()))
}

/// The total number of "null" chronons in a relation: for every tuple and
/// attribute, the chronons of `vls(t, A, R) = t.l ∩ ALS(A)` at which the
/// value is undefined. This quantifies §5's trade-off — products over
/// lifespan unions pay in nulls what joins over intersections pay in lost
/// history.
pub fn null_volume(r: &Relation) -> u64 {
    let mut total = 0u64;
    for t in r.iter() {
        for def in r.scheme().attrs() {
            let vls = t.lifespan().intersect(def.lifespan());
            let defined = match t.value(def.name()) {
                Some(tv) => tv.domain(),
                None => hrdm_time::Lifespan::empty(),
            };
            total = total.saturating_add(vls.difference(&defined).cardinality());
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{HistoricalDomain, ValueKind};
    use crate::scheme::Scheme;
    use crate::temporal::TemporalValue;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use hrdm_time::{Chronon, Lifespan};

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
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

    fn emp(name: &str, span: (i64, i64), salary: i64) -> Tuple {
        let life = Lifespan::interval(span.0, span.1);
        Tuple::builder(life.clone())
            .constant("NAME", name)
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

    #[test]
    fn product_pairs_all_tuples_over_lifespan_union() {
        let emps = Relation::with_tuples(
            emp_scheme(),
            vec![emp("John", (0, 9), 1), emp("Mary", (5, 14), 2)],
        )
        .unwrap();
        let depts =
            Relation::with_tuples(dept_scheme(), vec![dept("Toys", (20, 29), 100)]).unwrap();
        let p = cartesian_product(&emps, &depts).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.scheme().arity(), 4);
        let t = p
            .iter()
            .find(|t| t.at(&"NAME".into(), Chronon::new(0)).is_some())
            .unwrap();
        // Lifespan is the union — disjoint here.
        assert_eq!(t.lifespan(), &Lifespan::of(&[(0, 9), (20, 29)]));
        // Values keep their own spans: nulls on the other side's span.
        assert_eq!(t.at(&"SALARY".into(), Chronon::new(25)), None);
        assert_eq!(t.at(&"BUDGET".into(), Chronon::new(5)), None);
        assert_eq!(
            t.at(&"BUDGET".into(), Chronon::new(25)),
            Some(&Value::Int(100))
        );
    }

    #[test]
    fn product_requires_disjoint_attributes() {
        let r = Relation::new(emp_scheme());
        assert!(cartesian_product(&r, &r).is_err());
        // The standard device: prefix one side.
        let r2 = Relation::new(emp_scheme().prefixed("e2"));
        assert!(cartesian_product(&r, &r2).is_ok());
    }

    #[test]
    fn null_volume_measures_undefined_stretches() {
        // John alive [0,9], dept alive [20,29]; product tuple spans both.
        // Inside [20,29] John's NAME and SALARY are null (2 attrs × 10
        // chronons) and inside [0,9] DNAME and BUDGET are null (2 × 10).
        let emps = Relation::with_tuples(emp_scheme(), vec![emp("John", (0, 9), 1)]).unwrap();
        let depts =
            Relation::with_tuples(dept_scheme(), vec![dept("Toys", (20, 29), 100)]).unwrap();
        let p = cartesian_product(&emps, &depts).unwrap();
        assert_eq!(null_volume(&p), 40);
        // The operands themselves are null-free.
        assert_eq!(null_volume(&emps), 0);
        assert_eq!(null_volume(&depts), 0);
    }

    #[test]
    fn overlapping_lifespans_reduce_null_volume() {
        let emps = Relation::with_tuples(emp_scheme(), vec![emp("John", (0, 9), 1)]).unwrap();
        let d_far = Relation::with_tuples(dept_scheme(), vec![dept("Toys", (20, 29), 1)]).unwrap();
        let d_near = Relation::with_tuples(dept_scheme(), vec![dept("Toys", (5, 14), 1)]).unwrap();
        let far = null_volume(&cartesian_product(&emps, &d_far).unwrap());
        let near = null_volume(&cartesian_product(&emps, &d_near).unwrap());
        assert!(
            near < far,
            "more overlap must mean fewer nulls: {near} vs {far}"
        );
    }

    #[test]
    fn product_with_empty_relation_is_empty() {
        let emps = Relation::with_tuples(emp_scheme(), vec![emp("John", (0, 9), 1)]).unwrap();
        let empty = Relation::new(dept_scheme());
        assert!(cartesian_product(&emps, &empty).unwrap().is_empty());
    }
}

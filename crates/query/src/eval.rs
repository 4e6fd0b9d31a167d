//! The reference evaluator: the algebra's semantics written down as
//! directly as possible — no plans, no indexes, no batches; every
//! intermediate relation is materialized with the `hrdm_core::algebra`
//! function of its operator.
//!
//! It is the **differential oracle**, and only that. Every query the engine
//! answers runs through [`crate::plan_query`] and the executor tree of
//! [`crate::exec`]; the workspace's harness in `tests/oracle/` asks every production
//! source — bare map, detached and attached databases, mid-history
//! snapshots, recovered and paged databases, the stream under batch caps,
//! row caps and cancels, `hrdmd` over loopback — the same generated and
//! battery queries, evaluates them here on the same state and demands equal
//! answers. Nothing under a crate's `src/` may call it — `hrdm-lint`'s
//! `oracle-only` rule enforces that.

use crate::ast::{Expr, LifespanExpr, Query};
use crate::pipeline::QueryResult;
use crate::plan::RelationSource;
use hrdm_core::algebra::{
    cartesian_product, difference, difference_o, intersection, intersection_o, natural_join,
    project, select_if, select_when, theta_join, time_join, timeslice, timeslice_dynamic, union,
    union_o, when,
};
use hrdm_core::{HrdmError, Relation, Result};
use hrdm_time::Lifespan;

/// Evaluates a top-level query of any sort.
pub fn evaluate(q: &Query, src: &dyn RelationSource) -> Result<QueryResult> {
    match q {
        Query::Relation(e) => Ok(QueryResult::Relation(eval_expr(e, src)?)),
        Query::Lifespan(l) => Ok(QueryResult::Lifespan(eval_lifespan(l, src)?)),
        Query::Aggregate { op, attr, input } => {
            let r = eval_expr(input, src)?;
            Ok(QueryResult::Function(
                hrdm_core::algebra::aggregate_over_time(&r, attr, *op)?,
            ))
        }
    }
}

/// Evaluates a relation-sorted expression.
pub fn eval_expr(e: &Expr, src: &dyn RelationSource) -> Result<Relation> {
    match e {
        Expr::Relation(name) => src
            .relation(name)
            .cloned()
            .ok_or_else(|| HrdmError::UnknownRelation(name.clone())),
        Expr::Union(a, b) => union(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::Intersection(a, b) => intersection(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::Difference(a, b) => difference(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::UnionO(a, b) => union_o(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::IntersectionO(a, b) => intersection_o(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::DifferenceO(a, b) => difference_o(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::Product(a, b) => cartesian_product(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::Project { input, attrs } => project(&eval_expr(input, src)?, attrs),
        Expr::SelectIf {
            input,
            predicate,
            quantifier,
            lifespan,
        } => {
            let r = eval_expr(input, src)?;
            let bound = match lifespan {
                Some(l) => Some(eval_lifespan(l, src)?),
                None => None,
            };
            select_if(&r, predicate, *quantifier, bound.as_ref())
        }
        Expr::SelectWhen { input, predicate } => select_when(&eval_expr(input, src)?, predicate),
        Expr::TimeSlice { input, lifespan } => {
            let l = eval_lifespan(lifespan, src)?;
            Ok(timeslice(&eval_expr(input, src)?, &l))
        }
        Expr::TimeSliceDynamic { input, attr } => timeslice_dynamic(&eval_expr(input, src)?, attr),
        Expr::ThetaJoin {
            left,
            right,
            a,
            op,
            b,
        } => theta_join(&eval_expr(left, src)?, &eval_expr(right, src)?, a, *op, b),
        Expr::NaturalJoin(a, b) => natural_join(&eval_expr(a, src)?, &eval_expr(b, src)?),
        Expr::TimeJoin { left, right, attr } => {
            time_join(&eval_expr(left, src)?, &eval_expr(right, src)?, attr)
        }
    }
}

/// Evaluates a lifespan-sorted expression.
pub fn eval_lifespan(l: &LifespanExpr, src: &dyn RelationSource) -> Result<Lifespan> {
    match l {
        LifespanExpr::Literal(ls) => Ok(ls.clone()),
        LifespanExpr::When(e) => Ok(when(&eval_expr(e, src)?)),
        LifespanExpr::Union(a, b) => Ok(eval_lifespan(a, src)?.union(&eval_lifespan(b, src)?)),
        LifespanExpr::Intersect(a, b) => {
            Ok(eval_lifespan(a, src)?.intersect(&eval_lifespan(b, src)?))
        }
        LifespanExpr::Minus(a, b) => Ok(eval_lifespan(a, src)?.difference(&eval_lifespan(b, src)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_query};
    use hrdm_core::{HistoricalDomain, Scheme, TemporalValue, Tuple, Value, ValueKind};
    use std::collections::BTreeMap;

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "SALARY",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .attr(
                "DEPT",
                HistoricalDomain::string(),
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

    fn source() -> BTreeMap<String, Relation> {
        let mut emp = Relation::new(emp_scheme());
        let add = |r: &mut Relation,
                   name: &str,
                   spans: &[(i64, i64)],
                   sal: &[(i64, i64, i64)],
                   dept: &str| {
            let life = Lifespan::of(spans);
            let t = Tuple::builder(life.clone())
                .constant("NAME", name)
                .value(
                    "SALARY",
                    TemporalValue::of(
                        &sal.iter()
                            .map(|&(a, b, v)| (a, b, Value::Int(v)))
                            .collect::<Vec<_>>(),
                    ),
                )
                .value("DEPT", TemporalValue::constant(&life, Value::str(dept)))
                .finish(&emp_scheme())
                .unwrap();
            r.insert(t).unwrap();
        };
        add(
            &mut emp,
            "John",
            &[(0, 19)],
            &[(0, 9, 25_000), (10, 19, 30_000)],
            "Toys",
        );
        add(&mut emp, "Mary", &[(5, 30)], &[(5, 30, 30_000)], "Shoes");

        let mut dept = Relation::new(dept_scheme());
        let toys_life = Lifespan::interval(0, 40);
        dept.insert(
            Tuple::builder(toys_life.clone())
                .constant("DNAME", "Toys")
                .value(
                    "BUDGET",
                    TemporalValue::constant(&toys_life, Value::Int(100_000)),
                )
                .finish(&dept_scheme())
                .unwrap(),
        )
        .unwrap();

        let mut m = BTreeMap::new();
        m.insert("emp".to_string(), emp);
        m.insert("dept".to_string(), dept);
        m
    }

    fn run(src_text: &str) -> QueryResult {
        let q = parse_query(src_text).unwrap();
        evaluate(&q, &source()).unwrap()
    }

    #[test]
    fn evaluates_named_relation() {
        match run("emp") {
            QueryResult::Relation(r) => assert_eq!(r.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_relation_errors() {
        let q = parse_query("ghost").unwrap();
        assert!(evaluate(&q, &source()).is_err());
    }

    #[test]
    fn the_papers_flagship_query() {
        // σ-WHEN(Name=John ∧ Salary=30K)(emp): one tuple, lifespan [10,19].
        match run("SELECT-WHEN (NAME = \"John\" AND SALARY = 30000) (emp)") {
            QueryResult::Relation(r) => {
                assert_eq!(r.len(), 1);
                assert_eq!(r.tuples()[0].lifespan(), &Lifespan::interval(10, 19));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn when_query_returns_lifespan() {
        match run("WHEN (SELECT-WHEN (SALARY = 30000) (emp))") {
            QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(5, 30)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timeslice_with_when_parameter() {
        // Slice everyone to the era when Mary existed.
        match run("TIMESLICE (WHEN (SELECT-IF (NAME = \"Mary\", EXISTS) (emp))) (emp)") {
            QueryResult::Relation(r) => {
                assert_eq!(r.lifespan(), Lifespan::interval(5, 30));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_through_the_language() {
        match run("emp JOIN dept ON DEPT = DNAME") {
            QueryResult::Relation(r) => {
                assert_eq!(r.len(), 1); // only John is in Toys
                assert_eq!(r.tuples()[0].lifespan(), &Lifespan::interval(0, 19));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lifespan_algebra_queries() {
        match run("[0..10] & [5..20]") {
            QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(5, 10)),
            other => panic!("unexpected {other:?}"),
        }
        match run("WHEN (emp) - [0..9]") {
            QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(10, 30)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_queries_produce_time_varying_values() {
        let q = parse_query("COUNT SALARY (emp)").unwrap();
        match evaluate(&q, &source()).unwrap() {
            QueryResult::Function(f) => {
                use hrdm_time::Chronon;
                assert_eq!(f.at(Chronon::new(2)), Some(&Value::Int(1)));
                assert_eq!(f.at(Chronon::new(7)), Some(&Value::Int(2)));
                assert_eq!(f.at(Chronon::new(25)), Some(&Value::Int(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Aggregates compose with the algebra underneath.
        let q = parse_query("SUM SALARY (SELECT-WHEN (SALARY = 30000) (emp))").unwrap();
        match evaluate(&q, &source()).unwrap() {
            QueryResult::Function(f) => {
                use hrdm_time::Chronon;
                assert_eq!(f.at(Chronon::new(12)), Some(&Value::Int(60_000)));
                assert_eq!(f.at(Chronon::new(25)), Some(&Value::Int(30_000)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-numeric SUM is a type error.
        let q = parse_query("SUM NAME (emp)").unwrap();
        assert!(evaluate(&q, &source()).is_err());
        // AVG renders as float.
        let q = parse_query("AVG SALARY (emp)").unwrap();
        match evaluate(&q, &source()).unwrap() {
            QueryResult::Function(f) => {
                use hrdm_time::Chronon;
                assert_eq!(
                    f.at(Chronon::new(7)),
                    Some(&Value::float(27_500.0).unwrap())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eval_matches_direct_algebra() {
        let e = parse_expr("PROJECT [NAME] (SELECT-IF (SALARY >= 30000, EXISTS) (emp))").unwrap();
        let via_lang = eval_expr(&e, &source()).unwrap();
        let direct = {
            let src = source();
            let emp = src.get("emp").unwrap();
            let picked = hrdm_core::algebra::select_if(
                emp,
                &hrdm_core::algebra::Predicate::attr_op_value(
                    "SALARY",
                    hrdm_core::algebra::Comparator::Ge,
                    30_000i64,
                ),
                hrdm_core::algebra::Quantifier::Exists,
                None,
            )
            .unwrap();
            hrdm_core::algebra::project(&picked, &["NAME".into()]).unwrap()
        };
        assert_eq!(via_lang, direct);
    }
}

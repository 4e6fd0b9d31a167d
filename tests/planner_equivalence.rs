//! The planned executor is semantics-preserving for every sort of the
//! algebra: random queries — relations, lifespans (`WHEN` under `|`, `&`,
//! `-`), aggregates, and `TIMESLICE`/`SELECT-IF` whose parameter is itself
//! an `Ω(e)` — over random relations answer identically through the
//! reference evaluator (`eval.rs`: sequential scans, every intermediate
//! materialized) and through optimize → plan → executor tree, on a
//! database holding each relation in one partition (`indexed`), one cut
//! into 8-chronon partitions (`partitioned`) and a bare relation map — and
//! a binary operator answers the same whichever of its inputs it builds.
//! The partition map being the one lifespan access path, this is the
//! oracle for partition pruning against `eval.rs`.

mod common;

use common::{other_relation_strategy, relation_strategy};
use hrdm_core::algebra::AggregateOp;
use hrdm_core::prelude::*;
use hrdm_query::{
    build_executor_building, eval_expr, evaluate, optimize, plan, run_query, ExecError,
    ExecOptions, Expr, IndexSource, LifespanExpr, PipelineError, Query, QueryResult, QueryStream,
};
use hrdm_storage::{Database, PartitionPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The relations of `map` in a database, one partition each.
fn indexed(map: &BTreeMap<String, Relation>) -> Database {
    Database::with_relations(PartitionPolicy::Unpartitioned, map.clone()).unwrap()
}

/// The relations of `map` in a database cut into 8-chronon partitions.
fn partitioned(map: &BTreeMap<String, Relation>) -> Database {
    Database::with_relations(PartitionPolicy::SpanLog2(3), map.clone()).unwrap()
}

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    let key_pred = (0i64..6).prop_map(|k| Predicate::eq_value("K", k));
    let value_pred = (
        0i64..4,
        prop_oneof![
            Just(Comparator::Eq),
            Just(Comparator::Le),
            Just(Comparator::Gt)
        ],
    )
        .prop_map(|(c, op)| Predicate::attr_op_value("V", op, c));
    let mixed_pred = (key_pred.clone(), value_pred.clone()).prop_map(|(k, v)| k.and(v));
    prop_oneof![key_pred, value_pred, mixed_pred]
}

/// A lifespan parameter: a literal, or the `WHEN` of a select over `r` —
/// the paper's §4.5 bridge back into the relation sort.
fn window_strategy() -> impl Strategy<Value = LifespanExpr> {
    prop_oneof![
        common::lifespan_strategy().prop_map(LifespanExpr::Literal),
        pred_strategy().prop_map(|p| LifespanExpr::When(Box::new(Expr::rel("r").select_when(p)))),
    ]
}

/// Strategy: a random expression over relations `r` and `s` (both on the
/// test scheme, key `K`, with overlapping keys — so the set operators see
/// key-sharing tuples) and `r2` (other scheme, key `K2`), exercising every
/// index-eligible shape: literal TIME-SLICEs, key-equality σWHEN/σIF,
/// NATURAL-JOIN, plus the plain operators.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    // Nearly always on the test scheme, so that most generated trees are
    // well-typed (the predicates and the projection name its attributes,
    // the set operators want equal schemes on both sides); the odd leaf on
    // another scheme keeps the error paths compared too.
    let mut leaves = vec![
        Just(Expr::rel("r2")).boxed(),
        // NATJOIN of two base relations with no common attributes
        // degenerates to a product over lifespan intersections — still a
        // good planner case (no key probe possible).
        Just(Expr::NaturalJoin(
            Box::new(Expr::rel("r")),
            Box::new(Expr::rel("r2")),
        ))
        .boxed(),
    ];
    leaves.extend((0..30).map(|_| prop_oneof![Just(Expr::rel("r")), Just(Expr::rel("s"))].boxed()));
    let leaf = Union::new(leaves);
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), pred_strategy()).prop_map(|(e, p)| e.select_when(p)),
            (
                inner.clone(),
                pred_strategy(),
                prop_oneof![Just(Quantifier::Exists), Just(Quantifier::Forall)],
                prop_oneof![Just(None), window_strategy().prop_map(Some)],
            )
                .prop_map(|(e, p, q, l)| Expr::SelectIf {
                    input: Box::new(e),
                    predicate: p,
                    quantifier: q,
                    lifespan: l,
                }),
            (inner.clone(), window_strategy()).prop_map(|(e, l)| Expr::TimeSlice {
                input: Box::new(e),
                lifespan: l,
            }),
            inner.clone().prop_map(|e| e.project(["K", "V", "W"])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Intersection(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Difference(Box::new(a), Box::new(b))),
        ]
    })
}

/// A lifespan-sorted query: `WHEN`s and literals under `|`, `&`, `-`.
fn lifespan_expr_strategy() -> impl Strategy<Value = LifespanExpr> {
    let leaf = prop_oneof![
        expr_strategy().prop_map(|e| LifespanExpr::When(Box::new(e))),
        common::lifespan_strategy().prop_map(LifespanExpr::Literal),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        (inner.clone(), inner, 0u8..3).prop_map(|(a, b, op)| {
            let (a, b) = (Box::new(a), Box::new(b));
            match op {
                0 => LifespanExpr::Union(a, b),
                1 => LifespanExpr::Intersect(a, b),
                _ => LifespanExpr::Minus(a, b),
            }
        })
    })
}

/// A query of any sort.
fn query_strategy() -> impl Strategy<Value = Query> {
    let op = prop_oneof![
        Just(AggregateOp::Count),
        Just(AggregateOp::Sum),
        Just(AggregateOp::Max),
    ];
    prop_oneof![
        expr_strategy().prop_map(Query::Relation),
        lifespan_expr_strategy().prop_map(Query::Lifespan),
        (op, expr_strategy()).prop_map(|(op, input)| Query::Aggregate {
            op,
            attr: "V".into(),
            input,
        }),
    ]
}

/// A symmetric binary operator over random operands: `∪ ∩ ∪ₒ ∩ₒ ⋈` on
/// the test scheme (operands built by plain unions share keys), θ-JOIN
/// and × against `r2`.
fn symmetric_strategy() -> impl Strategy<Value = Expr> {
    (expr_strategy(), expr_strategy(), 0u8..7).prop_map(|(a, b, op)| {
        let (a, b) = (Box::new(a), Box::new(b));
        match op {
            0 => Expr::Union(a, b),
            1 => Expr::Intersection(a, b),
            2 => Expr::UnionO(a, b),
            3 => Expr::IntersectionO(a, b),
            4 => Expr::NaturalJoin(a, b),
            5 => Expr::ThetaJoin {
                left: a,
                right: Box::new(Expr::rel("r2")),
                a: "V".into(),
                op: Comparator::Le,
                b: "X".into(),
            },
            _ => Expr::Product(a, Box::new(Expr::rel("r2"))),
        }
    })
}

/// Planned ≡ reference on `src`. Queries mixing the two schemes can be
/// ill-typed (e.g. a union of incompatible schemes); both must then fail.
fn assert_planned_matches_reference(q: &Query, src: &dyn IndexSource, ctx: &str) {
    match (evaluate(q, src), run_query(q, src)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{ctx}: {q}"),
        (Err(_), Err(PipelineError::Eval(_))) => {}
        (reference, planned) => {
            panic!("{ctx}: reference {reference:?} but planned {planned:?} on {q}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(128))]

    #[test]
    fn planned_execution_matches_the_reference_evaluator(
        q in query_strategy(),
        r in relation_strategy(),
        s in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let mut map = BTreeMap::new();
        map.insert("r".to_string(), r);
        map.insert("s".to_string(), s);
        map.insert("r2".to_string(), r2);
        assert_planned_matches_reference(&q, &partitioned(&map), "partitioned");
        assert_planned_matches_reference(&q, &indexed(&map), "indexed");
        assert_planned_matches_reference(&q, &map, "bare");
    }

    /// Build/probe is an execution strategy, not semantics: forced to
    /// build its left input and then its right one, a symmetric binary
    /// operator answers exactly what the reference evaluator does — on
    /// the indexed and partitioned sources (where a bare base operand's
    /// own key index or partition map is the build table) and the bare one.
    #[test]
    fn either_build_side_gives_the_same_relation(
        e in symmetric_strategy(),
        r in relation_strategy(),
        s in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let mut map = BTreeMap::new();
        map.insert("r".to_string(), r);
        map.insert("s".to_string(), s);
        map.insert("r2".to_string(), r2);
        let (db, one_partition) = (partitioned(&map), indexed(&map));
        let sources: [(&str, &dyn IndexSource); 3] =
            [("partitioned", &db), ("indexed", &one_partition), ("bare", &map)];
        let opts = ExecOptions::default();
        for (ctx, src) in sources {
            let reference = eval_expr(&e, src);
            let p = plan(&optimize(&e).0, src);
            for build_left in [true, false] {
                let root = build_executor_building(&p, build_left, src, &opts);
                match (&reference, QueryStream::new(root, &opts).and_then(QueryStream::collect_relation)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, &b, "{} building left={}: {}", ctx, build_left, e),
                    (Err(_), Err(ExecError::Eval(_))) => {}
                    (a, b) => panic!("{ctx} building left={build_left}: reference {a:?} but {b:?} on {e}"),
                }
            }
        }
    }

    /// `WHEN` evaluates the unaries at the top of its operand in
    /// lifespan-only mode; a relation root builds every restricted tuple.
    /// The two must agree: `Ω(e)` is the lifespan of `e`'s answer.
    #[test]
    fn lifespan_only_chains_match_tuple_building_ones(
        e in expr_strategy(),
        r in relation_strategy(),
        s in relation_strategy(),
        r2 in other_relation_strategy(),
    ) {
        let mut map = BTreeMap::new();
        map.insert("r".to_string(), r);
        map.insert("s".to_string(), s);
        map.insert("r2".to_string(), r2);
        let src = indexed(&map);
        let when = Query::Lifespan(LifespanExpr::When(Box::new(e.clone())));
        match (run_query(&Query::Relation(e.clone()), &src), run_query(&when, &src)) {
            (Ok(QueryResult::Relation(built)), Ok(QueryResult::Lifespan(l))) => {
                prop_assert_eq!(built.lifespan(), l, "{}", e)
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", e),
            (built, when) => panic!("{e}: relation root {built:?} but WHEN root {when:?}"),
        }
    }

    /// Interleaved writes and queries against a `Database`: the inserts
    /// maintain the indexes incrementally (no invalidation, no rebuild),
    /// and after *every* write each random expression must still evaluate
    /// identically through the planner and through plain scans.
    #[test]
    fn equivalence_holds_under_interleaved_inserts(
        e in expr_strategy(),
        r in relation_strategy(),
        s in relation_strategy(),
        r2 in other_relation_strategy(),
        growth in proptest::collection::vec(
            (common::lifespan_strategy(), common::segments_strategy(),
             common::segments_strategy()),
            1..4,
        ),
    ) {
        let mut db =
            Database::with_relations(PartitionPolicy::default(), [("r", r), ("s", s), ("r2", r2)])
                .unwrap();
        let q = Query::Relation(e.clone());

        for (i, (life, v, w)) in growth.into_iter().enumerate() {
            // Keys 100+ never collide with relation_strategy's 0..5.
            let t = common::build_tuple(
                &common::test_scheme(), "K", 100 + i as i64, &life,
                &[("V", v), ("W", w)],
            );
            db.insert("r", t).unwrap();

            let mut map = BTreeMap::new();
            for name in ["r", "s", "r2"] {
                map.insert(name.to_string(), db.relation(name).unwrap().clone());
            }
            match (eval_expr(&e, &map), run_query(&q, &db)) {
                (Ok(a), Ok(QueryResult::Relation(b))) => {
                    prop_assert_eq!(a, b, "after insert {}", i)
                }
                (Err(_), Err(PipelineError::Eval(_))) => {}
                (plain, planned) => panic!(
                    "after insert {i}: reference {plain:?} but planned {planned:?} on {e}"
                ),
            }
        }
    }
}

//! The optimizer's rewrite rules are semantics-preserving: random
//! expression trees evaluate identically before and after optimization.

mod common;

use common::{other_relation_strategy, relation_strategy};
use hrdm_core::prelude::*;
use hrdm_query::{eval_expr, optimize, Expr, LifespanExpr};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a random expression over relations named `r` (test scheme) and
/// `s` (other scheme), built to be *well-typed* by construction.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("r")), Just(Expr::rel("r2"))];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let pred = (
            0i64..4,
            prop_oneof![
                Just(Comparator::Eq),
                Just(Comparator::Le),
                Just(Comparator::Gt)
            ],
        )
            .prop_map(|(c, op)| Predicate::attr_op_value("V", op, c));
        let lifespan = common::lifespan_strategy().prop_map(LifespanExpr::Literal);
        prop_oneof![
            // Unary operators (keep the scheme compatible for set ops).
            (inner.clone(), pred.clone()).prop_map(|(e, p)| Expr::SelectWhen {
                input: Box::new(e),
                predicate: p,
            }),
            (inner.clone(), pred.clone()).prop_map(|(e, p)| Expr::SelectIf {
                input: Box::new(e),
                predicate: p,
                quantifier: Quantifier::Exists,
                lifespan: None,
            }),
            (inner.clone(), lifespan).prop_map(|(e, l)| Expr::TimeSlice {
                input: Box::new(e),
                lifespan: l,
            }),
            inner.clone().prop_map(|e| e.project(["K", "V", "W"])),
            // Binary, scheme-compatible combinations.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Intersection(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Difference(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_plans_evaluate_identically(
        e in expr_strategy(),
        r in relation_strategy(),
        r2 in relation_strategy(),
    ) {
        let mut src: BTreeMap<String, Relation> = BTreeMap::new();
        src.insert("r".into(), r);
        src.insert("r2".into(), r2);

        let (optimized, _trace) = optimize(&e);
        let before = eval_expr(&e, &src);
        let after = eval_expr(&optimized, &src);
        match (before, after) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr: {}", e),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (a, b) => prop_assert!(false, "divergent outcomes for {}: {:?} vs {:?}", e, a.is_ok(), b.is_ok()),
        }
    }

    #[test]
    fn optimization_growth_is_bounded(e in expr_strategy()) {
        // Fusion rules shrink; distribution over union duplicates at most
        // one slice node per union, so growth is at most linear.
        let (optimized, _trace) = optimize(&e);
        prop_assert!(
            optimized.size() <= e.size() * 2,
            "{} grew to {}",
            e,
            optimized
        );
    }

    #[test]
    fn display_parse_round_trip(e in expr_strategy()) {
        // The textual form of any expression re-parses to the same tree —
        // the language and the AST printer stay in lockstep.
        let printed = e.to_string();
        let reparsed = hrdm_query::parse_expr(&printed);
        prop_assert_eq!(reparsed.as_ref(), Ok(&e), "printed: {}", printed);
    }

    #[test]
    fn optimization_is_idempotent(e in expr_strategy()) {
        let (once, _) = optimize(&e);
        let (twice, trace2) = optimize(&once);
        prop_assert_eq!(once, twice);
        prop_assert!(trace2.is_empty(), "second pass still fired: {:?}", trace2);
    }

    #[test]
    fn join_expressions_survive_optimization(
        r in relation_strategy(),
        s in other_relation_strategy(),
        c in 0i64..4,
    ) {
        // A hand-built multi-operator query with a join (joins need
        // distinct schemes, so they live outside the recursive strategy).
        let e = Expr::TimeSlice {
            input: Box::new(Expr::SelectWhen {
                input: Box::new(Expr::ThetaJoin {
                    left: Box::new(Expr::rel("r")),
                    right: Box::new(Expr::rel("s")),
                    a: "V".into(),
                    op: Comparator::Le,
                    b: "X".into(),
                }),
                predicate: Predicate::attr_op_value("W", Comparator::Ge, c),
            }),
            lifespan: LifespanExpr::Literal(Lifespan::interval(0, 20)),
        };
        let mut src: BTreeMap<String, Relation> = BTreeMap::new();
        src.insert("r".into(), r);
        src.insert("s".into(), s);
        let (optimized, trace) = optimize(&e);
        prop_assert!(!trace.is_empty()); // timeslice pushes through select-when
        prop_assert_eq!(
            eval_expr(&e, &src).unwrap(),
            eval_expr(&optimized, &src).unwrap()
        );
    }
}

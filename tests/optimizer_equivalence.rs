//! The §5 rewrites against `eval.rs` (see `oracle/mod.rs`), and the
//! properties of the rewriter and the printer on generated queries.

mod common;
mod oracle;

use hrdm_query::{eval_expr, evaluate, optimize, parse_expr, parse_query, Query};
use oracle::matrix::{entry, on, run_matrix, Opened};
use oracle::world::{expr_strategy, query_strategy, State, World};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `eval.rs` on the tree the §5 rewrites leave, for relation-sorted
/// queries.
fn optimized(w: &World) -> Opened<'_> {
    on(State::Final, move |q, _| {
        let Query::Relation(e) = q else {
            return None;
        };
        let optimized = Query::Relation(optimize(e).0);
        Some(evaluate(&optimized, &w.states[0]).map_err(|e| e.to_string()))
    })
}

/// `eval.rs` answers an optimized tree as it answers the original, after
/// every generated history: optimizing preserves the meaning of every
/// relation-sorted query, whatever the planner then does with the tree.
#[test]
fn optimized_plans_evaluate_identically() {
    run_matrix(1_000, &[entry("eval.rs of the optimized tree", optimized)]);
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(64))]

    /// Fusions shrink a tree; distribution over a union duplicates at
    /// most one slice node per union, so growth is at most linear.
    #[test]
    fn optimization_growth_is_bounded(e in expr_strategy()) {
        let (once, _) = optimize(&e);
        prop_assert!(once.size() <= e.size() * 2, "{} grew to {}", e, once);
    }

    /// A second pass finds nothing left to fire.
    #[test]
    fn optimization_is_idempotent(e in expr_strategy()) {
        let (once, _) = optimize(&e);
        let (twice, trace) = optimize(&once);
        prop_assert_eq!(&once, &twice);
        prop_assert!(trace.is_empty(), "second pass still fired: {:?}", trace);
    }

    /// The textual form of any query, of any sort, re-parses to the same
    /// tree: the language and the printer stay in lockstep.
    #[test]
    fn display_parse_round_trip(q in query_strategy()) {
        let printed = q.to_string();
        prop_assert_eq!(parse_query(&printed), Ok(q), "printed: {}", printed);
    }

    /// A θ-join under a select under a slice: the slice is pushed through
    /// the select, and the rewritten tree answers as the original does.
    #[test]
    fn join_expressions_survive_optimization(
        r in common::relation_strategy(),
        r2 in common::other_relation_strategy(),
        c in 0i64..4,
    ) {
        let text = format!("TIMESLICE [0..20] (SELECT-WHEN (W >= {c}) (r JOIN r2 ON V <= X))");
        let e = parse_expr(&text).unwrap();
        let src = BTreeMap::from([("r".to_string(), r), ("r2".to_string(), r2)]);
        let (optimized, trace) = optimize(&e);
        prop_assert!(!trace.is_empty(), "nothing fired on {}", text);
        prop_assert_eq!(eval_expr(&e, &src).unwrap(), eval_expr(&optimized, &src).unwrap());
    }
}

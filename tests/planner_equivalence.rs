//! The access-path planner and the build/probe executor against `eval.rs`
//! (see `oracle/mod.rs`): planned execution on every kind of source,
//! either build side, lifespan-only `WHEN` chains, and snapshots taken
//! while the history is still being written.

mod common;
mod oracle;

use hrdm_query::{
    build_executor_building, optimize, plan, run_query, ExecOptions, IndexSource, LifespanExpr,
    Query, QueryResult, QueryStream,
};
use oracle::matrix::{
    attached, canon, entry, failure, on, planned, planned_on, run_matrix, Opened,
};
use oracle::world::{State, World};
use std::sync::Arc;

/// Planned execution over the bare relation map and over detached
/// databases, one partition per relation and cut at a random span,
/// answers as `eval.rs` does after every generated history.
#[test]
fn planned_execution_matches_the_reference_evaluator() {
    run_matrix(
        1_000,
        &[
            entry("bare map", |w| planned_on(State::Final, &w.states[0])),
            entry("detached/unpartitioned", |w| {
                planned_on(State::Final, &w.flat)
            }),
            entry("detached/partitioned", |w| planned_on(State::Final, &w.cut)),
        ],
    );
}

/// A binary root forced to build its left input, then its right one, on
/// the partitioned and unpartitioned databases (where a bare base
/// operand's key index or partition map is the build table) and the bare
/// map: all six answers agree.
fn build_sides(w: &World) -> Opened<'_> {
    on(State::Final, move |q, _| {
        let Query::Relation(e) = q else {
            return None;
        };
        let opts = ExecOptions::default();
        let mut answers = Vec::new();
        for src in [&w.cut as &dyn IndexSource, &w.flat, &w.states[0]] {
            let p = plan(&optimize(e).0, src);
            for build_left in [true, false] {
                let root = build_executor_building(&p, build_left, src, &opts);
                let answer = QueryStream::new(root, &opts).and_then(QueryStream::collect_relation);
                answers.push(answer.map(QueryResult::Relation).map_err(failure));
            }
        }
        for a in &answers {
            assert_eq!(canon(a), canon(&answers[0]), "build sides disagree on {e}");
        }
        answers.pop()
    })
}

/// Build/probe is an execution strategy, not semantics: a binary root
/// forced to build its left input, then its right one, answers the same
/// on every kind of source.
#[test]
fn either_build_side_gives_the_same_relation() {
    run_matrix(1_000, &[entry("build sides", build_sides)]);
}

/// `Ω(e)`, asked as `WHEN e`, next to `e`'s relation answer.
fn when_of_the_relation(w: &World) -> Opened<'_> {
    let snap = w.part.snapshot();
    on(State::Final, move |q, _| {
        let Query::Relation(e) = q else {
            return None;
        };
        let when = Query::Lifespan(LifespanExpr::When(Box::new(e.clone())));
        let built = run_query(q, &*snap);
        match (&built, run_query(&when, &*snap)) {
            (Ok(QueryResult::Relation(r)), Ok(QueryResult::Lifespan(l))) => {
                assert_eq!(r.lifespan(), l, "{e}")
            }
            (Err(a), Err(b)) => assert_eq!(a, &b, "{e}"),
            (built, when) => panic!("{e}: relation root {built:?} but WHEN root {when:?}"),
        }
        planned(built)
    })
}

/// `WHEN` evaluates the unaries at the top of its operand in
/// lifespan-only mode; a relation root builds every restricted tuple. The
/// two agree: `Ω(e)` is the lifespan of `e`'s answer.
#[test]
fn lifespan_only_chains_match_tuple_building_ones() {
    run_matrix(
        1_000,
        &[entry("WHEN of the relation", when_of_the_relation)],
    );
}

/// A snapshot of the attached engine taken after a random write of the
/// history, while the writer goes on, answers as `eval.rs` does on that
/// snapshot's own state: the engine maintains its partition maps and key
/// indexes write by write.
#[test]
fn equivalence_holds_under_interleaved_inserts() {
    run_matrix(
        1_000,
        &[entry("attached/mid-history", |w| {
            attached(State::Mid, Arc::clone(&w.mid))
        })],
    );
}

//! Access-path selection: indexable queries get an `IndexScan`, everything
//! else a `SeqScan` — and either way the executor's results are identical
//! to the reference evaluator's.

use hrdm_core::prelude::*;
use hrdm_query::{
    build_executor, eval_expr, explain_stream_plan, explain_with_access, optimize, parse_expr,
    parse_query, plan, run_query, AccessPath, ExecOptions, IndexSource, Plan, QueryStream,
};
use hrdm_storage::{Database, PartitionPolicy};
use std::collections::BTreeMap;

/// Runs a physical plan through its executor tree and collects the answer.
fn execute(p: &Plan, src: &dyn IndexSource) -> Relation {
    let opts = ExecOptions::default();
    QueryStream::new(build_executor(p, src, &opts), &opts)
        .unwrap()
        .collect_relation()
        .unwrap()
}

/// The plan as `EXPLAIN` prints it.
fn explain_plan(p: &Plan, src: &dyn IndexSource) -> String {
    explain_stream_plan(p, src, &ExecOptions::default())
}

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
        .key_attr("DEPT", ValueKind::Str, Lifespan::interval(0, 100))
        .attr(
            "BUDGET",
            HistoricalDomain::int(),
            Lifespan::interval(0, 100),
        )
        .build()
        .unwrap()
}

fn evt_scheme() -> Scheme {
    Scheme::builder()
        .key_attr("E", ValueKind::Int, Lifespan::interval(0, 100))
        .attr("AT", HistoricalDomain::time(), Lifespan::interval(0, 100))
        .build()
        .unwrap()
}

fn relations() -> BTreeMap<String, Relation> {
    let mut emp = Relation::new(emp_scheme());
    let mut add = |name: &str, spans: &[(i64, i64)], sal: i64, dept: &str| {
        let life = Lifespan::of(spans);
        let t = Tuple::builder(life.clone())
            .constant("NAME", name)
            .value("SALARY", TemporalValue::constant(&life, Value::Int(sal)))
            .value("DEPT", TemporalValue::constant(&life, Value::str(dept)))
            .finish(&emp_scheme())
            .unwrap();
        emp.insert(t).unwrap();
    };
    add("John", &[(0, 19)], 25_000, "Toys");
    add("Mary", &[(5, 30)], 30_000, "Shoes");
    add("Igor", &[(40, 60), (70, 80)], 27_000, "Toys");

    let mut dept = Relation::new(dept_scheme());
    for (name, spans, budget) in [
        ("Toys", vec![(0i64, 50i64)], 100_000i64),
        ("Shoes", vec![(0, 90)], 50_000),
    ] {
        let life = Lifespan::of(&spans);
        dept.insert(
            Tuple::builder(life.clone())
                .constant("DEPT", name)
                .value("BUDGET", TemporalValue::constant(&life, Value::Int(budget)))
                .finish(&dept_scheme())
                .unwrap(),
        )
        .unwrap();
    }

    let mut evt = Relation::new(evt_scheme());
    let life = Lifespan::interval(0, 90);
    evt.insert(
        Tuple::builder(life.clone())
            .constant("E", 1i64)
            .value("AT", TemporalValue::constant(&life, Value::time(10)))
            .finish(&evt_scheme())
            .unwrap(),
    )
    .unwrap();

    let mut m = BTreeMap::new();
    m.insert("emp".to_string(), emp);
    m.insert("dept".to_string(), dept);
    m.insert("evt".to_string(), evt);
    m
}

/// The relations in one partition each: every bounded scan's EXPLAIN reads
/// `partitions: 0/1 pruned` unless its window misses the relation whole.
fn indexed() -> Database {
    Database::with_relations(PartitionPolicy::Unpartitioned, relations()).unwrap()
}

/// Plans `src_text` (after optimization) and returns the plan plus its
/// rendering.
fn planned(src_text: &str) -> (Plan, String) {
    let e = parse_expr(src_text).unwrap();
    let (optimized, _) = optimize(&e);
    let src = indexed();
    let p = plan(&optimized, &src);
    let text = explain_plan(&p, &src);
    (p, text)
}

/// Asserts the planned execution returns exactly what the reference
/// evaluator returns for `src_text`.
fn assert_same_results(src_text: &str) {
    let e = parse_expr(src_text).unwrap();
    let src = indexed();
    let via_plan = {
        let (optimized, _) = optimize(&e);
        execute(&plan(&optimized, &src), &src)
    };
    let via_scan = eval_expr(&e, &relations()).unwrap();
    assert_eq!(via_plan, via_scan, "plan and scan disagree on {src_text}");
}

#[test]
fn timeslice_uses_lifespan_index() {
    let (p, text) = planned("TIMESLICE [10..20] (emp)");
    assert!(
        text.contains("IndexScan(lifespan, [10..20]) partitions: 0/1 pruned"),
        "missing index scan in:\n{text}"
    );
    // A window past every lifespan prunes the relation's one partition.
    let (_, text) = planned("TIMESLICE [95..99] (emp)");
    assert!(text.contains("partitions: 1/1 pruned"), "{text}");
    match &p {
        Plan::Unary { input, .. } => assert!(matches!(
            **input,
            Plan::Scan {
                access: AccessPath::LifespanIndex { .. },
                ..
            }
        )),
        other => panic!("unexpected plan {other:?}"),
    }
    assert_same_results("TIMESLICE [10..20] (emp)");
    // Fragmented windows and empty windows too.
    assert_same_results("TIMESLICE [0..3, 75..99] (emp)");
    assert_same_results("TIMESLICE [95..99] (emp)");
}

#[test]
fn select_when_with_key_equality_uses_key_index() {
    let q = "SELECT-WHEN (NAME = \"John\" AND SALARY = 25000) (emp)";
    let (_, text) = planned(q);
    assert!(
        text.contains("IndexScan(key, NAME = \"John\")"),
        "missing key index scan in:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn select_if_exists_with_key_equality_uses_key_index() {
    let q = "SELECT-IF (NAME = \"Igor\", EXISTS) (emp)";
    let (_, text) = planned(q);
    assert!(
        text.contains("IndexScan(key"),
        "missing key scan in:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn select_if_forall_stays_seq_scan() {
    // FORALL can select vacuously (empty quantification domain), so key
    // pruning would be unsound; the planner must not use the index.
    let q = "SELECT-IF (NAME = \"John\", FORALL, [90..95]) (emp)";
    let (_, text) = planned(q);
    assert!(text.contains("[SeqScan]"), "expected SeqScan in:\n{text}");
    assert!(!text.contains("IndexScan"), "unsound IndexScan in:\n{text}");
    assert_same_results(q);
}

#[test]
fn non_key_predicates_stay_seq_scan() {
    for q in [
        "SELECT-WHEN (SALARY = 30000) (emp)",
        "SELECT-WHEN (NAME = \"John\" OR SALARY = 30000) (emp)",
        "emp",
    ] {
        let (_, text) = planned(q);
        assert!(
            !text.contains("IndexScan"),
            "unexpected IndexScan for {q}:\n{text}"
        );
        assert!(
            text.contains("[SeqScan]"),
            "expected SeqScan for {q}:\n{text}"
        );
        assert_same_results(q);
    }
}

#[test]
fn optimizer_normal_form_composes_with_index() {
    // τ over σWHEN: the optimizer pushes the slice under the select, so
    // the planner can serve the slice from the partition map.
    let q = "TIMESLICE [0..10] (SELECT-WHEN (SALARY = 25000) (emp))";
    let (_, text) = planned(q);
    assert!(
        text.contains("IndexScan(lifespan, [0..10]) partitions: 0/1 pruned"),
        "missing pushed-down index scan in:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn natural_join_probes_key_index() {
    let q = "emp NATJOIN dept";
    let (_, text) = planned(q);
    assert!(
        text.contains("index nested loop") && text.contains("IndexScan(key"),
        "missing index join in:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn time_join_probes_lifespan_index() {
    let q = "evt TIMEJOIN@AT dept";
    let (_, text) = planned(q);
    assert!(
        text.contains("index nested loop") && text.contains("IndexScan(lifespan"),
        "missing index time-join in:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn theta_join_plans_children() {
    // evt's attributes are disjoint from emp's, as θ-JOIN requires. The θ
    // comparison itself cannot use an index, but index opportunities in
    // the children must survive — here a literal TIMESLICE on the left.
    let q = "(TIMESLICE [0..10] (emp)) JOIN evt ON SALARY > E";
    let (p, text) = planned(q);
    assert!(matches!(p, Plan::ThetaJoin { .. }));
    assert!(
        text.contains("IndexScan(lifespan, [0..10]) partitions: 0/1 pruned"),
        "child index scan lost inside θ-join:\n{text}"
    );
    assert_same_results(q);
    assert_same_results("emp JOIN evt ON SALARY > E");
}

#[test]
fn time_join_with_non_base_probe_side_plans_children() {
    // The probe side is not a bare indexed relation, so no index join —
    // but the left child's TIMESLICE still gets its lifespan scan.
    let q = "(TIMESLICE [0..20] (evt)) TIMEJOIN@AT (PROJECT [DEPT] (dept))";
    let (p, text) = planned(q);
    assert!(matches!(p, Plan::TimeJoin { .. }));
    assert!(
        text.contains("IndexScan(lifespan, [0..20]) partitions: 0/1 pruned"),
        "child index scan lost inside TIME-JOIN:\n{text}"
    );
    assert_same_results(q);
}

#[test]
fn cross_kind_key_literal_does_not_probe_the_key_index() {
    // evt is keyed on E: Int. A Float equality literal compares equal to
    // an Int *numerically* (predicate semantics) but not *structurally*
    // (hash lookup), so the planner must refuse the probe.
    let q = "SELECT-WHEN (E = 1.0) (evt)";
    let (_, text) = planned(q);
    assert!(
        !text.contains("IndexScan"),
        "unsound cross-kind key probe in:\n{text}"
    );
    assert_same_results(q);
    // The matching-kind literal still probes.
    let (_, text) = planned("SELECT-WHEN (E = 1) (evt)");
    assert!(text.contains("IndexScan(key, E = 1)"), "{text}");
    assert_same_results("SELECT-WHEN (E = 1) (evt)");
}

/// Interleaved inserts and queries against a real `Database`: the indexes
/// are maintained incrementally, so EXPLAIN keeps reporting `IndexScan`
/// after every write (no wholesale invalidation) and the planned results
/// keep matching the plain evaluator's.
#[test]
fn interleaved_inserts_keep_index_scans_and_equivalence() {
    let mut db = hrdm_storage::Database::new();
    let scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, Lifespan::interval(0, 1000))
        .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 1000))
        .build()
        .unwrap();
    db.create_relation("r", scheme.clone()).unwrap();

    let queries = [
        "TIMESLICE [5..25] (r)",
        "SELECT-WHEN (K = 7) (r)",
        "SELECT-IF (K = 3 AND V <= 400, EXISTS) (r)",
    ];
    for k in 0..40i64 {
        let lo = (k * 11) % 300;
        let life = Lifespan::interval(lo, lo + 20);
        let t = Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k * 13)))
            .finish(&scheme)
            .unwrap();
        db.insert("r", t).unwrap();

        // No rebuild: the write path alone must have
        // kept the indexes live.
        for q in &queries {
            let e = parse_expr(q).unwrap();
            let (optimized, _) = optimize(&e);
            let p = plan(&optimized, &db);
            let text = explain_plan(&p, &db);
            assert!(
                text.contains("IndexScan"),
                "after {} inserts, {q} lost its index scan:\n{text}",
                k + 1
            );
            let via_plan = execute(&p, &db);
            let via_scan = eval_expr(&e, &db).unwrap();
            assert_eq!(via_plan, via_scan, "{q} after {} inserts", k + 1);
        }
    }
}

#[test]
fn without_indexes_everything_is_seq_scan() {
    // A source that has relations but no indexes: the planner degrades.
    let bare = relations();
    let e = parse_expr("TIMESLICE [10..20] (emp)").unwrap();
    let (optimized, _) = optimize(&e);
    let p = plan(&optimized, &bare);
    let text = explain_plan(&p, &bare);
    assert!(
        !text.contains("IndexScan") && !text.contains("partitions:"),
        "IndexScan without an index:\n{text}"
    );
    assert_eq!(execute(&p, &bare), eval_expr(&e, &bare).unwrap());
}

/// A literal TIME-SLICE bound propagates through the per-tuple unaries
/// and the set operators down to every base scan — each one becomes a
/// lifespan-index scan — and planned results stay exactly the plain
/// evaluator's.
#[test]
fn timeslice_bound_propagates_to_scans_under_selects_and_set_ops() {
    for q in [
        "TIMESLICE [0..30] (SELECT-WHEN (SALARY >= 26000) (emp))",
        "TIMESLICE [0..30] (PROJECT [NAME, SALARY] (emp))",
        "TIMESLICE [0..30] (emp UNION emp)",
        "TIMESLICE [0..30] ((SELECT-WHEN (SALARY >= 1) (emp)) MINUS emp)",
        "TIMESLICE [0..30] (SELECT-IF (SALARY >= 1, FORALL, [5..9]) (emp))",
    ] {
        let (_, text) = planned(q);
        assert!(
            text.contains("IndexScan(lifespan"),
            "bound did not reach the scan for {q}:\n{text}"
        );
        assert!(
            !text.contains("[SeqScan]"),
            "a scan escaped the bound for {q}:\n{text}"
        );
        assert_same_results(q);
    }
    // Nested slices narrow the bound to the intersection even when the
    // optimizer cannot fuse them (an opaque operator in between).
    let q = "TIMESLICE [0..20] (PROJECT [NAME] (TIMESLICE [10..40] (emp)))";
    let (_, text) = planned(q);
    assert!(
        text.contains("IndexScan(lifespan, [10..20]) partitions: 0/1 pruned"),
        "nested bounds must intersect:\n{text}"
    );
    assert_same_results(q);
}

/// The bound is cut at products and joins: their outputs combine both
/// sides, so pruning either side by the outer window would be unsound.
#[test]
fn timeslice_bound_is_cut_at_products() {
    let q = "TIMESLICE [0..10] (emp PRODUCT evt)";
    let (_, text) = planned(q);
    assert!(
        !text.contains("IndexScan(lifespan"),
        "bound leaked through a product:\n{text}"
    );
    assert_same_results(q);
}

/// Against a partitioned source (a real `Database`), a bounded scan's
/// EXPLAIN carries `partitions: k/N pruned`, with counts from the
/// source's partition map — and the pruned evaluation stays exact.
#[test]
fn partitioned_source_explains_pruning_counts() {
    let mut db = hrdm_storage::Database::new();
    db.set_partition_policy(hrdm_storage::PartitionPolicy::SpanLog2(4)); // span 16
    let scheme = Scheme::builder()
        .key_attr("K", ValueKind::Int, Lifespan::interval(0, 1000))
        .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 1000))
        .build()
        .unwrap();
    db.create_relation("r", scheme.clone()).unwrap();
    for k in 0..16i64 {
        let lo = k * 16;
        let life = Lifespan::interval(lo, lo + 10);
        let t = Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k)))
            .finish(&scheme)
            .unwrap();
        db.insert("r", t).unwrap();
    }
    let e = parse_expr("TIMESLICE [0..40] (r)").unwrap();
    let (optimized, _) = optimize(&e);
    let p = plan(&optimized, &db);
    let text = explain_plan(&p, &db);
    assert!(
        text.contains("partitions: 13/16 pruned"),
        "wrong or missing pruning counts:\n{text}"
    );
    assert_eq!(
        execute(&p, &db),
        eval_expr(&e, &db).unwrap(),
        "pruned scan diverged"
    );
}

#[test]
fn explain_with_access_shows_rewrites_and_paths() {
    let e = parse_expr("TIMESLICE [0..10] (TIMESLICE [5..20] (emp))").unwrap();
    let text = explain_with_access(&e, &indexed());
    assert!(text.contains("== rewrites =="));
    assert!(text.contains("FuseTimeslice"));
    assert!(text.contains("== access paths =="));
    assert!(text.contains("IndexScan(lifespan, [5..10]) partitions: 0/1 pruned"));
}

#[test]
fn every_sort_matches_the_reference_evaluator() {
    let src = indexed();
    for q in [
        "TIMESLICE [10..20] (emp)",
        "SELECT-WHEN (NAME = \"Mary\") (emp)",
        "WHEN (SELECT-WHEN (SALARY = 30000) (emp))",
        "WHEN (TIMESLICE [10..20] (emp)) | WHEN (SELECT-WHEN (NAME = \"Igor\") (emp)) - [75..99]",
        "TIMESLICE (WHEN (SELECT-WHEN (NAME = \"Igor\") (emp))) (dept)",
        "COUNT SALARY (emp)",
        "AVG SALARY (TIMESLICE [0..10] (emp))",
    ] {
        let parsed = parse_query(q).unwrap();
        let planned = run_query(&parsed, &src).unwrap();
        let reference = hrdm_query::evaluate(&parsed, &relations()).unwrap();
        assert_eq!(planned, reference, "{q}");
    }
}

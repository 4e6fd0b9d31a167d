//! End-to-end pipeline tests across all crates: generate → persist →
//! reload → query (optimized) → compare against the baseline models.

mod common;

use common::{build_tuple, test_scheme};
use hrdm_baseline::{hrdm_to_cube, hrdm_to_ts, snapshot_of_hrdm, ts_to_hrdm};
use hrdm_core::prelude::*;
use hrdm_query::{eval_expr, optimize, parse_expr, parse_query, run_query, Query, QueryResult};
use hrdm_storage::{Database, PartitionPolicy};
use proptest::prelude::*;

fn sample_relation() -> Relation {
    let scheme = test_scheme();
    let tuples = vec![
        build_tuple(
            &scheme,
            "K",
            1,
            &Lifespan::of(&[(0, 14), (25, 40)]), // reincarnated object
            &[
                ("V", vec![(0, 9, 10), (10, 14, 20), (25, 40, 30)]),
                ("W", vec![(0, 14, 5), (25, 40, 5)]),
            ],
        ),
        build_tuple(
            &scheme,
            "K",
            2,
            &Lifespan::interval(5, 30),
            &[("V", vec![(5, 30, 20)]), ("W", vec![(5, 30, 7)])],
        ),
    ];
    Relation::with_tuples(scheme, tuples).unwrap()
}

#[test]
fn persist_reload_query_pipeline() {
    let dir = std::env::temp_dir().join(format!("hrdm-pipeline-{}", std::process::id()));
    let r = sample_relation();

    // Persist through the physical level.
    let db = Database::with_relations(PartitionPolicy::default(), [("r", r.clone())]).unwrap();
    db.save(&dir).unwrap();

    // Reload and compare.
    let db = Database::load(&dir).unwrap();
    assert_eq!(db.relation("r").unwrap(), &r);

    // Query through the language, optimized, against the reloaded DB.
    let e = parse_expr("TIMESLICE [0..20] (SELECT-WHEN (V >= 20) (r))").unwrap();
    let (optimized, trace) = optimize(&e);
    assert!(!trace.is_empty());
    let direct = eval_expr(&e, &db).unwrap();
    assert_eq!(direct, eval_expr(&optimized, &db).unwrap());
    // The engine (optimize → plan → execute) agrees with the reference.
    match run_query(&Query::Relation(e), &db).unwrap() {
        QueryResult::Relation(planned) => assert_eq!(planned, direct),
        other => panic!("unexpected {other:?}"),
    }

    // Expected: object 1 matches on [10,14] (V=20), object 2 on [5,20]∩[5,30].
    assert_eq!(direct.len(), 2);
    assert_eq!(direct.lifespan(), Lifespan::interval(5, 20));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn all_models_agree_on_snapshots_of_the_pipeline_relation() {
    let r = sample_relation();
    let ts = hrdm_to_ts(&r).unwrap();
    let cube = hrdm_to_cube(&r, None).unwrap();

    for t in [0i64, 7, 14, 20, 27, 40] {
        let t = Chronon::new(t);
        let snap = snapshot_of_hrdm(&r, t).unwrap();
        let ts_rows: std::collections::BTreeSet<Vec<Value>> = ts
            .timeslice(t)
            .into_iter()
            .map(|v| v.values.clone())
            .collect();
        let snap_rows: std::collections::BTreeSet<Vec<Value>> =
            snap.rows().iter().cloned().collect();
        assert_eq!(snap_rows, ts_rows, "tuple-timestamped disagrees at {t:?}");

        let cube_rows: std::collections::BTreeSet<Vec<Value>> = cube
            .timeslice(t)
            .iter()
            .map(|row| row.iter().map(|v| v.clone().unwrap()).collect())
            .collect();
        assert_eq!(snap_rows, cube_rows, "cube disagrees at {t:?}");
    }
}

#[test]
fn ts_round_trip_preserves_the_relation() {
    let r = sample_relation();
    let ts = hrdm_to_ts(&r).unwrap();
    let back = ts_to_hrdm(&ts, r.scheme()).unwrap();
    assert_eq!(back, r);
}

#[test]
fn language_queries_match_direct_algebra_on_the_pipeline_relation() {
    let src = Database::with_relations(PartitionPolicy::Unpartitioned, [("r", sample_relation())])
        .unwrap();

    // WHEN through the language == Ω over select-when directly.
    let q = parse_query("WHEN (SELECT-WHEN (V = 30) (r))").unwrap();
    match run_query(&q, &src).unwrap() {
        QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(25, 40)),
        other => panic!("unexpected {other:?}"),
    }

    // Dynamic behaviors compose with storage-independent equality.
    let q = parse_query("PROJECT [K] (SELECT-IF (V = 20, FORALL, [10..14]) (r))").unwrap();
    match run_query(&q, &src).unwrap() {
        QueryResult::Relation(rel) => {
            // Object 1 earns V=20 throughout [10,14]; object 2 holds V=20
            // everywhere, so both pass the bounded ∀.
            assert_eq!(rel.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(24))]

    #[test]
    fn storage_round_trip_is_identity(r in common::relation_strategy()) {
        let dir = std::env::temp_dir().join(format!(
            "hrdm-prop-{}-{}",
            std::process::id(),
            rand_suffix(&r)
        ));
        let db = Database::with_relations(PartitionPolicy::default(), [("r", r.clone())]).unwrap();
        db.save(&dir).unwrap();
        let back = Database::load(&dir).unwrap();
        prop_assert_eq!(back.relation("r").unwrap(), &r);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ts_conversion_round_trips_total_relations(r in common::relation_strategy()) {
        // Restrict to the fully-defined parts first (the information the 1NF
        // model can carry), then the round trip must be exact.
        let total: Vec<Tuple> = r
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
        let total_rel = Relation::with_tuples(r.scheme().clone(), total).unwrap();
        let ts = hrdm_to_ts(&total_rel).unwrap();
        let back = ts_to_hrdm(&ts, total_rel.scheme()).unwrap();
        prop_assert_eq!(back, total_rel);
    }
}

/// A per-input suffix so parallel proptest cases do not collide on a shared
/// temp directory. Tuples hash under a key drawn once per process, so the
/// suffix is stable within one process only; the process id in the name
/// keeps separate processes apart.
fn rand_suffix(r: &Relation) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    for t in r.iter() {
        t.hash(&mut h);
    }
    h.finish()
}

//! The whole query pipeline (optimizer → access-path planner → executor)
//! over a [`hrdm_storage::DbSnapshot`] agrees with the same pipeline over a
//! single-threaded [`hrdm_storage::Database`] at the same commit point —
//! while a concurrent writer keeps mutating the live state underneath the
//! snapshot holder.

use hrdm_core::prelude::*;
use hrdm_query::{explain_with_access, parse_expr, parse_query, run_query, QueryResult};
use hrdm_storage::{ConcurrentDatabase, Database};
use std::sync::Arc;

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 1_000_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tup(k: i64) -> Tuple {
    let lo = k % 1000;
    let life = Lifespan::interval(lo, lo + 50);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

#[test]
fn snapshot_pipeline_matches_single_threaded_oracle_under_writes() {
    let db = Arc::new(ConcurrentDatabase::new());
    db.create_relation("r", scheme()).unwrap();
    for k in 0..100 {
        db.insert("r", tup(k)).unwrap();
    }
    let snap = db.snapshot();

    // The single-threaded oracle at the same commit point.
    let mut oracle = Database::new();
    oracle.create_relation("r", scheme()).unwrap();
    for k in 0..100 {
        oracle.insert("r", tup(k)).unwrap();
    }

    // Concurrent writer commits while we evaluate on the snapshot.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for k in 100..200 {
                db.insert("r", tup(k)).unwrap();
            }
        })
    };

    for q in [
        "TIMESLICE [0..40] (r)",
        "SELECT-WHEN (K = 17) (r)",
        "SELECT-IF (V >= 50, EXISTS) (r)",
        "PROJECT [K] (TIMESLICE [10..20] (r))",
        "r NATJOIN r",
        "WHEN (SELECT-WHEN (V >= 50) (r))",
        "COUNT V (TIMESLICE [0..40] (r))",
    ] {
        let parsed = parse_query(q).unwrap();
        let via_snapshot = run_query(&parsed, &*snap).unwrap();
        let via_oracle = run_query(&parsed, &oracle).unwrap();
        assert_eq!(
            via_snapshot, via_oracle,
            "snapshot diverged from oracle on {q}"
        );
    }
    writer.join().unwrap();
    // The snapshot never saw the concurrent writer's 100 extra commits.
    assert_eq!(snap.relation("r").unwrap().len(), 100);
    assert_eq!(db.snapshot().relation("r").unwrap().len(), 200);
}

/// Snapshots carry their frozen indexes: the planner picks index scans
/// against a snapshot exactly as it does against the live database.
#[test]
fn planner_uses_snapshot_indexes() {
    let db = ConcurrentDatabase::new();
    db.create_relation("r", scheme()).unwrap();
    for k in 0..50 {
        db.insert("r", tup(k)).unwrap();
    }
    let snap = db.snapshot();
    let e = parse_expr("TIMESLICE [5..9] (r)").unwrap();
    let text = explain_with_access(&e, &*snap);
    assert!(
        text.contains("IndexScan(lifespan"),
        "snapshot plan lost the index scan:\n{text}"
    );
    let e = parse_expr("SELECT-WHEN (K = 7) (r)").unwrap();
    let text = explain_with_access(&e, &*snap);
    assert!(
        text.contains("IndexScan(key"),
        "snapshot plan lost the key probe:\n{text}"
    );
}

/// A snapshot taken before a repartition keeps planning `IndexScan`
/// against its **frozen** partition map: the pruning counts in EXPLAIN
/// reflect the old cut, positions stay valid, and results equal the live
/// engine's for the shared prefix.
#[test]
fn old_snapshots_plan_index_scans_against_their_frozen_partition_map() {
    use hrdm_storage::PartitionPolicy;
    let db = ConcurrentDatabase::new();
    db.set_partition_policy(PartitionPolicy::SpanLog2(8)); // span 256
    db.create_relation("r", scheme()).unwrap();
    for k in 0..200 {
        db.insert("r", tup(k)).unwrap();
    }
    let old = db.snapshot();
    let old_parts = old.partitions("r").unwrap().partition_count();

    // The writer splits the hot partitions: span 256 → 16.
    db.set_partition_policy(PartitionPolicy::SpanLog2(4));
    for k in 200..260 {
        db.insert("r", tup(k)).unwrap();
    }

    // The old snapshot still plans an IndexScan, with pruning counts from
    // its frozen (coarse) map — not the live (fine) one.
    let e = parse_expr("TIMESLICE [100..180] (r)").unwrap();
    let text = explain_with_access(&e, &*old);
    assert!(
        text.contains("IndexScan(lifespan") && text.contains("partitions:"),
        "frozen snapshot lost its pruned index scan:\n{text}"
    );
    assert!(
        text.contains(&format!("/{old_parts} pruned")),
        "pruning totals must come from the frozen map ({old_parts} partitions):\n{text}"
    );
    let live_parts = db.snapshot().partitions("r").unwrap().partition_count();
    assert!(
        live_parts > old_parts,
        "the split must have grown the live partition count"
    );

    // And evaluation on the frozen map returns exactly the old prefix.
    let parsed = parse_query("TIMESLICE [0..1000] (r)").unwrap();
    match run_query(&parsed, &*old).unwrap() {
        QueryResult::Relation(r) => assert_eq!(r.len(), 200),
        other => panic!("unexpected result {other:?}"),
    }
}

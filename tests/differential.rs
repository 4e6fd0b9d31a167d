//! Differential oracle: the **partitioned** engine must be observationally
//! identical to an **unpartitioned** reference (`partition span = ∞`).
//!
//! Identical random op/query sequences drive two attached engines that
//! differ only in [`PartitionPolicy`]; after every phase the suite asserts
//!
//! * byte-equal query results for a battery of planned queries
//!   (TIME-SLICEs, selects, joins, set ops, WHEN, aggregates),
//! * EXPLAIN-pruning **soundness**: on the partitioned engine, the pruned
//!   plan executes to exactly what the reference evaluator (`eval.rs`)
//!   produces — for every sort, `WHEN` and aggregates included,
//! * equal `\stats` op counts (the group-commit layer is unaffected),
//! * byte-equal WALs (partitioning is physical — the log format must not
//!   know about it), and
//! * equal recovered states after a crash with an identically torn WAL
//!   tail.
//!
//! Run with `PROPTEST_CASES=256` (the CI `partition-tests` leg) for the
//! acceptance-level case count; the default here is already 256.

use hrdm_core::prelude::*;
use hrdm_query::{
    evaluate, explain_with_access, parse_expr, parse_query, run_query, PipelineError, QueryResult,
};
use hrdm_storage::{ConcurrentDatabase, Database, DbSnapshot, PartitionPolicy};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hrdm-diff-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn r_scheme() -> Scheme {
    let era = Lifespan::interval(0, 4096);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn evt_scheme() -> Scheme {
    let era = Lifespan::interval(0, 4096);
    Scheme::builder()
        .key_attr("E", ValueKind::Int, era.clone())
        .attr("AT", HistoricalDomain::time(), era)
        .build()
        .unwrap()
}

fn r_tup(k: i64, lo: i64, len: i64, v: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + len);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(v)))
        .finish(&r_scheme())
        .unwrap()
}

fn evt_tup(e: i64, lo: i64, len: i64, at: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + len);
    Tuple::builder(life.clone())
        .constant("E", e)
        .value("AT", TemporalValue::constant(&life, Value::time(at)))
        .finish(&evt_scheme())
        .unwrap()
}

/// The query battery both engines answer after every phase: lifespan
/// bounds that prune, predicates that probe, operators that combine, plus
/// the lifespan and aggregate sorts.
const QUERIES: &[&str] = &[
    "r",
    "TIMESLICE [40..70] (r)",
    "TIMESLICE [0..3, 130..150] (r)",
    "TIMESLICE [4000..4090] (r)",
    "SELECT-WHEN (K = 5) (r)",
    "SELECT-WHEN (V >= 50) (r)",
    "TIMESLICE [10..90] (SELECT-WHEN (V >= 20) (r))",
    "PROJECT [V] (TIMESLICE [5..120] (r))",
    "TIMESLICE [0..80] (r UNION r)",
    "(TIMESLICE [0..100] (r)) MINUS (TIMESLICE [50..200] (r))",
    "(TIMESLICE [0..128] (r)) INTERSECT-O (TIMESLICE [64..256] (r))",
    "SELECT-IF (V >= 10, FORALL, [16..48]) (r)",
    "evt TIMEJOIN@AT r",
    "TIMESLICE [8..40] (evt TIMEJOIN@AT r)",
    "SLICE@AT (evt)",
    "WHEN (TIMESLICE [5..95] (r))",
    "WHEN (SELECT-WHEN (V >= 50) (r))",
    "WHEN (TIMESLICE [0..60] (r)) | WHEN (SELECT-WHEN (K = 5) (r)) - [20..30]",
    "TIMESLICE (WHEN (SELECT-IF (V >= 90, EXISTS) (r))) (r)",
    "COUNT V (r)",
    "COUNT V (TIMESLICE [40..70] (r))",
    "MAX V (TIMESLICE [4000..4090] (r))",
];

/// Canonical byte serialization of a query result: tuple renderings sorted,
/// so physically different tuple orders (partition-major after a reopen vs
/// insertion order) compare byte-for-byte.
fn canonical(result: &QueryResult) -> String {
    match result {
        QueryResult::Relation(r) => {
            let mut lines: Vec<String> = r.iter().map(|t| t.to_string()).collect();
            lines.sort();
            format!("scheme {}\n{}", r.scheme(), lines.join("\n"))
        }
        QueryResult::Lifespan(l) => l.to_string(),
        QueryResult::Function(f) => f.to_string(),
    }
}

/// Both engines answer every battery query identically, and on the
/// partitioned side the pruned plan ≡ the unplanned evaluator.
fn assert_engines_agree(part: &DbSnapshot, reference: &DbSnapshot, ctx: &str) {
    for q in QUERIES {
        let parsed = parse_query(q).unwrap();
        let a = run_query(&parsed, part);
        let b = run_query(&parsed, reference);
        match (&a, &b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(canonical(ra), canonical(rb), "{ctx}: `{q}` diverged");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "{ctx}: `{q}`"),
            _ => panic!("{ctx}: `{q}` succeeded on one engine only: {a:?} vs {b:?}"),
        }
        assert_pruned_plan_sound(part, q, ctx);
    }
}

/// EXPLAIN-pruning soundness: the partitioned engine's *planned* (pruned)
/// execution equals the reference evaluator on the same snapshot, query
/// for query — whatever the query's sort.
fn assert_pruned_plan_sound(snap: &DbSnapshot, q: &str, ctx: &str) {
    let parsed = parse_query(q).unwrap();
    match (run_query(&parsed, snap), evaluate(&parsed, snap)) {
        (Ok(x), Ok(y)) => assert_eq!(x, y, "{ctx}: pruned ≢ unpruned for `{q}`"),
        (Err(PipelineError::Eval(x)), Err(y)) => assert_eq!(x, y, "{ctx}: `{q}`"),
        (x, y) => panic!("{ctx}: `{q}`: pruned {x:?} vs unpruned {y:?}"),
    }
}

/// The single WAL file of a directory.
fn wal_file(dir: &std::path::Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("wal.") && name.ends_with(".log")
        })
        .collect();
    assert_eq!(found.len(), 1, "exactly one WAL per epoch in {dir:?}");
    found.pop().unwrap()
}

/// One scripted mutation, applied identically to both engines.
#[derive(Clone, Debug)]
enum Op {
    InsertR { k: i64, lo: i64, len: i64, v: i64 },
    InsertEvt { e: i64, lo: i64, len: i64, at: i64 },
    Put { keys: Vec<i64> },
    Checkpoint,
    Repartition { span_log2: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0i64..40), (0i64..900), (1i64..60), (0i64..100))
            .prop_map(|(k, lo, len, v)| Op::InsertR { k, lo, len, v }),
        ((0i64..20), (0i64..900), (1i64..40), (0i64..950))
            .prop_map(|(e, lo, len, at)| Op::InsertEvt { e, lo, len, at }),
        prop::collection::vec(0i64..40, 0..6).prop_map(|keys| Op::Put { keys }),
        Just(Op::Checkpoint),
        (2u32..9).prop_map(|span_log2| Op::Repartition { span_log2 }),
    ]
}

/// Applies `op` to one engine; results must match the sibling call on the
/// other engine (checked by the caller via returned ack).
fn apply(db: &ConcurrentDatabase, op: &Op) -> std::result::Result<(), String> {
    match op {
        Op::InsertR { k, lo, len, v } => db
            .insert("r", r_tup(*k, *lo, *len, *v))
            .map_err(|e| e.to_string()),
        Op::InsertEvt { e, lo, len, at } => db
            .insert("evt", evt_tup(*e, *lo, *len, *at))
            .map_err(|e| e.to_string()),
        Op::Put { keys } => {
            let mut uniq = keys.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let tuples: Vec<Tuple> = uniq.iter().map(|&k| r_tup(k, k * 7, 10, k)).collect();
            let contents = Relation::with_tuples(r_scheme(), tuples).unwrap();
            db.put_relation("r", contents).map_err(|e| e.to_string())
        }
        Op::Checkpoint => db.checkpoint().map_err(|e| e.to_string()),
        Op::Repartition { span_log2 } => {
            // Only the partitioned engine's cut changes; the reference
            // keeps span = ∞. The caller repartitions the right side.
            db.set_partition_policy(PartitionPolicy::SpanLog2(*span_log2));
            Ok(())
        }
    }
}

fn open_pair(tag: &str) -> (ConcurrentDatabase, ConcurrentDatabase, PathBuf, PathBuf) {
    let dir_p = tmp(&format!("{tag}-part"));
    let dir_r = tmp(&format!("{tag}-ref"));
    let part = ConcurrentDatabase::open(&dir_p).unwrap();
    part.set_partition_policy(PartitionPolicy::SpanLog2(4)); // span 16
    let reference = ConcurrentDatabase::open(&dir_r).unwrap();
    reference.set_partition_policy(PartitionPolicy::Unpartitioned);
    for db in [&part, &reference] {
        db.create_relation("r", r_scheme()).unwrap();
        db.create_relation("evt", evt_scheme()).unwrap();
    }
    (part, reference, dir_p, dir_r)
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(256))]

    /// The oracle: random op sequences, equal answers, equal stats, equal
    /// WAL bytes, equal recovery after an identically torn crash.
    #[test]
    fn partitioned_engine_is_observationally_identical(
        ops in prop::collection::vec(op_strategy(), 1..12),
        cut_back in 0u64..64,
    ) {
        let (part, reference, dir_p, dir_r) = open_pair("prop");
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&part, op);
            let b = match op {
                // The reference engine never repartitions.
                Op::Repartition { .. } => Ok(()),
                _ => apply(&reference, op),
            };
            prop_assert_eq!(a, b, "op {} acked differently", i);
        }
        assert_engines_agree(&part.snapshot(), &reference.snapshot(), "post-ops");

        // Equal `\stats` op counts: partitioning must not change what the
        // group-commit layer acknowledges.
        prop_assert_eq!(part.stats().ops, reference.stats().ops);

        // The WAL knows nothing of partitioning: byte-identical logs.
        let (wal_p, wal_r) = (wal_file(&dir_p), wal_file(&dir_r));
        prop_assert_eq!(wal_p.file_name(), wal_r.file_name(), "same epoch");
        prop_assert_eq!(
            std::fs::read(&wal_p).unwrap(),
            std::fs::read(&wal_r).unwrap(),
            "WAL bytes diverged"
        );

        // Crash both engines with an identically torn WAL tail; both must
        // recover the same state (prefix consistency is engine-agnostic).
        drop(part);
        drop(reference);
        for wal in [&wal_p, &wal_r] {
            let len = std::fs::metadata(wal).unwrap().len();
            std::fs::OpenOptions::new()
                .write(true)
                .open(wal)
                .unwrap()
                .set_len(len.saturating_sub(cut_back))
                .unwrap();
        }
        let part = Database::open(&dir_p).unwrap();
        let reference = Database::open(&dir_r).unwrap();
        let names_p: Vec<&str> = part.relation_names().collect();
        let names_r: Vec<&str> = reference.relation_names().collect();
        prop_assert_eq!(&names_p, &names_r, "recovered relation sets differ");
        for name in names_p {
            prop_assert_eq!(
                part.relation(name).unwrap(),
                reference.relation(name).unwrap(),
                "recovered `{}` differs", name
            );
        }
        assert_engines_agree(&part.snapshot(), &reference.snapshot(), "post-crash");
        std::fs::remove_dir_all(&dir_p).ok();
        std::fs::remove_dir_all(&dir_r).ok();
    }
}

/// Concurrency interleaving: racing writers feed both engines the same
/// (disjoint-key) workload while readers snapshot mid-flight; the engines
/// converge to identical answers and identical op counts.
#[test]
fn concurrent_writers_leave_identical_engines() {
    let (part, reference, dir_p, dir_r) = open_pair("conc");
    let part = Arc::new(part);
    let reference = Arc::new(reference);
    for db in [Arc::clone(&part), Arc::clone(&reference)] {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..40i64 {
                        let k = w * 1000 + i;
                        db.insert("r", r_tup(k, (k * 13) % 900, 25, k)).unwrap();
                        if i % 16 == 0 {
                            // Mid-flight reader: pruned ≡ unpruned on
                            // whatever prefix this snapshot caught.
                            let snap = db.snapshot();
                            for q in ["TIMESLICE [50..120] (r)", "SELECT-WHEN (V >= 10) (r)"] {
                                assert_pruned_plan_sound(&snap, q, "mid-flight");
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    assert_engines_agree(&part.snapshot(), &reference.snapshot(), "post-race");
    assert_eq!(part.stats().ops, reference.stats().ops);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_r).ok();
}

/// The acceptance scenario: a selective TIME-SLICE on a 64-partition,
/// densely populated relation plans `partitions: k/N pruned` with `k < N`,
/// and the pruned result is exact.
#[test]
fn explain_prunes_selective_timeslice_on_64_partitions() {
    let db = ConcurrentDatabase::new();
    db.set_partition_policy(PartitionPolicy::SpanLog2(4)); // span 16
    db.create_relation("r", r_scheme()).unwrap();
    // One tuple per 16-chronon range over [0, 1024): exactly 64 partitions,
    // each summary confined to its own range.
    for k in 0..64i64 {
        db.insert("r", r_tup(k, k * 16, 10, k)).unwrap();
    }
    let snap = db.snapshot();
    assert_eq!(snap.partitions("r").unwrap().partition_count(), 64);

    let e = parse_expr("TIMESLICE [100..120] (r)").unwrap();
    let text = explain_with_access(&e, &*snap);
    assert!(
        text.contains("partitions: 62/64 pruned"),
        "EXPLAIN missing pruning line:\n{text}"
    );
    assert_pruned_plan_sound(&snap, "TIMESLICE [100..120] (r)", "64-partition");

    // The pruned evaluation returns exactly the two overlapping tuples.
    let parsed = parse_query("TIMESLICE [100..120] (r)").unwrap();
    match run_query(&parsed, &*snap).unwrap() {
        QueryResult::Relation(r) => assert_eq!(r.len(), 2),
        other => panic!("unexpected result {other:?}"),
    }

    // Pruning also composes under a select (the optimizer pushes the
    // slice down; the bound reaches the scan).
    let e = parse_expr("TIMESLICE [100..120] (SELECT-WHEN (V >= 0) (r))").unwrap();
    let text = explain_with_access(&e, &*snap);
    assert!(
        text.contains("partitions: 62/64 pruned"),
        "bound did not reach the scan under the select:\n{text}"
    );
}

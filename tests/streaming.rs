//! Streaming differential oracle: the pull-based executor
//! ([`hrdm_query::stream_query_on_snapshot`]) must be observationally
//! identical to the reference evaluator (`eval.rs`) — same battery of
//! queries of every sort, same random database states, same answers —
//! under
//!
//! * the default execution options,
//! * tiny batch sizes (1..64 rows, exercising every batch boundary), and
//! * forced morsel-parallel scans (`workers: 4, parallel_min_rows: 1`),
//!   where batch *order* is nondeterministic but set semantics make the
//!   collected relation identical.
//!
//! A live-writer interleaving test additionally streams against snapshots
//! taken mid-write: snapshot isolation means the stream and the evaluator
//! must agree on whatever prefix each snapshot caught.
//!
//! Run with `PROPTEST_CASES=256` (the CI acceptance leg); the default here
//! is already 256.

use hrdm_core::prelude::*;
use hrdm_query::{
    evaluate, parse_query, stream_query_on_snapshot, ExecError, ExecOptions, QueryResult,
    StreamedQuery,
};
use hrdm_storage::{ConcurrentDatabase, PartitionPolicy};
use proptest::prelude::*;
use std::sync::Arc;

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

/// The same battery the engine-level differential oracle answers: lifespan
/// bounds that prune, predicates that probe, operators that combine, plus
/// the lifespan and aggregate sorts (whose executor trees end in a `WHEN`
/// or aggregate root instead of a stream).
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
    "WHEN (SELECT-IF (V >= 10, FORALL, [16..48]) (TIMESLICE [0..300] (r)))",
    "WHEN (PROJECT [V] (SELECT-WHEN (V >= 20) (r)))",
    "WHEN (SLICE@AT (evt))",
    "WHEN (TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r))",
    "WHEN (TIMESLICE [0..100] (r)) | WHEN (TIMESLICE [50..200] (r))",
    "WHEN (r) - WHEN (SELECT-WHEN (K = 5) (r)) & [0..500]",
    "TIMESLICE (WHEN (SELECT-WHEN (V >= 90) (r))) (r)",
    "SELECT-IF (V >= 10, EXISTS, WHEN (evt)) (r)",
    "COUNT V (r)",
    "COUNT V (TIMESLICE [40..70] (r))",
    "SUM V (SELECT-WHEN (V >= 50) (r))",
    "MIN V (TIMESLICE [4000..4090] (r))",
    // Key-sharing operands — a plain UNION's output holds two tuples for
    // every object alive in both windows (Fig. 11) — fed into the object
    // operators and into a second UNION; the windowed ones check that no
    // bound is pushed through `∪ₒ`/`−ₒ`.
    "(TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)) UNION-O r",
    "r MINUS-O (TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r))",
    "(TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)) MINUS-O TIMESLICE [80..120] (r)",
    "(TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)) INTERSECT-O TIMESLICE [60..260] (r)",
    "(TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)) UNION (TIMESLICE [60..260] (r) UNION r)",
    "TIMESLICE [40..160] (r UNION-O (TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)))",
    "TIMESLICE [40..160] ((TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r)) MINUS-O r)",
    "TIMESLICE [100..200] (r MINUS-O (TIMESLICE [0..99] (r) UNION TIMESLICE [90..300] (r)))",
    "r NATJOIN (TIMESLICE [0..100] (r) UNION TIMESLICE [50..200] (r))",
    "(SELECT-WHEN (K = 5) (r)) PRODUCT evt",
];

/// Canonical byte serialization of a query result: tuple renderings
/// sorted, so the nondeterministic batch order of parallel scans compares
/// byte-for-byte against the evaluator's insertion order.
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

/// Drains a streamed query to a [`QueryResult`], checking the per-batch
/// invariants on the way: no batch exceeds the configured size, no empty
/// batches are surfaced, and the stream's own row/batch accounting matches
/// what the caller observed.
fn drain(sq: StreamedQuery<'_>, batch_cap: usize) -> Result<QueryResult, ExecError> {
    match sq {
        StreamedQuery::Rows(mut stream) => {
            let scheme = stream.scheme().clone();
            let mut rows = Vec::new();
            let mut batches = 0u64;
            while let Some(batch) = stream.next_batch()? {
                assert!(
                    !batch.is_empty(),
                    "executors must not surface empty batches"
                );
                assert!(
                    batch.len() <= batch_cap,
                    "batch of {} rows exceeds the {batch_cap}-row cap",
                    batch.len()
                );
                batches += 1;
                rows.extend(batch.into_rows());
            }
            assert_eq!(stream.rows_streamed(), rows.len() as u64, "row accounting");
            assert_eq!(stream.batches_streamed(), batches, "batch accounting");
            Ok(QueryResult::Relation(Relation::from_parts_unchecked(
                scheme, rows,
            )))
        }
        StreamedQuery::Lifespan { value, .. } => Ok(QueryResult::Lifespan(value)),
        StreamedQuery::Function { value, .. } => Ok(QueryResult::Function(value)),
    }
}

/// The oracle step: for one query and one option set, streaming ≡ eval.
fn assert_stream_matches_eval(
    snap: &hrdm_storage::DbSnapshot,
    q: &str,
    opts: &ExecOptions,
    ctx: &str,
) {
    let parsed = parse_query(q).unwrap();
    let reference = evaluate(&parsed, snap);
    let batch_cap = opts.batch_rows.max(1);
    let streamed = match stream_query_on_snapshot(q, snap, opts) {
        Ok(sq) => drain(sq, batch_cap),
        Err(e) => {
            assert!(
                reference.is_err(),
                "{ctx}: `{q}` failed streaming ({e}) but evaluated fine"
            );
            return;
        }
    };
    match (streamed, reference) {
        (Ok(a), Ok(b)) => assert_eq!(canonical(&a), canonical(&b), "{ctx}: `{q}` diverged"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{ctx}: `{q}` succeeded on one path only: {a:?} vs {b:?}"),
    }
}

/// Every battery query, under serial defaults, tiny batches, and forced
/// morsel parallelism.
fn assert_battery_agrees(snap: &hrdm_storage::DbSnapshot, batch_rows: usize, ctx: &str) {
    let serial = ExecOptions {
        batch_rows,
        ..ExecOptions::default()
    };
    let parallel = ExecOptions {
        batch_rows,
        workers: 4,
        parallel_min_rows: 1,
        ..ExecOptions::default()
    };
    for q in QUERIES {
        assert_stream_matches_eval(snap, q, &serial, &format!("{ctx}/serial"));
        assert_stream_matches_eval(snap, q, &parallel, &format!("{ctx}/parallel"));
    }
}

fn populated(span_log2: u32) -> ConcurrentDatabase {
    let db = ConcurrentDatabase::new();
    db.set_partition_policy(PartitionPolicy::SpanLog2(span_log2));
    db.create_relation("r", r_scheme()).unwrap();
    db.create_relation("evt", evt_scheme()).unwrap();
    db
}

/// Deterministic acceptance case: a dense 64-partition relation answers
/// the full battery identically through both paths, including with forced
/// parallel scans and 1-row batches.
#[test]
fn streaming_matches_the_evaluator_on_the_battery() {
    let db = populated(4);
    for k in 0..64i64 {
        db.insert("r", r_tup(k, k * 16, 10, k)).unwrap();
    }
    for e in 0..16i64 {
        db.insert("evt", evt_tup(e, e * 50, 30, e * 60)).unwrap();
    }
    let snap = db.snapshot();
    assert_battery_agrees(&snap, 1, "dense-64/batch=1");
    assert_battery_agrees(&snap, 7, "dense-64/batch=7");
    assert_battery_agrees(&snap, 1024, "dense-64/batch=1024");
}

/// The row cap cuts a stream off with [`ExecError::RowLimit`] — and the
/// uncapped prefix it did deliver is a subset of the evaluator's answer.
#[test]
fn row_cap_truncates_the_stream() {
    let db = populated(4);
    for k in 0..64i64 {
        db.insert("r", r_tup(k, k * 16, 10, k)).unwrap();
    }
    let snap = db.snapshot();
    let opts = ExecOptions {
        batch_rows: 8,
        max_rows: Some(10),
        ..ExecOptions::default()
    };
    match stream_query_on_snapshot("r", &*snap, &opts).unwrap() {
        StreamedQuery::Rows(mut stream) => {
            let mut seen = 0u64;
            let err = loop {
                match stream.next_batch() {
                    Ok(Some(b)) => seen += b.len() as u64,
                    Ok(None) => panic!("64-row scan must trip the 10-row cap"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, ExecError::RowLimit(10)), "{err}");
            assert!(seen <= 10, "cap overshot: {seen} rows escaped");
        }
        _ => panic!("relation-sorted query"),
    };
}

/// A cancel probe flipping true mid-stream aborts within one batch
/// boundary: at most one more batch surfaces after the flip.
#[test]
fn cancel_aborts_within_one_batch() {
    let db = populated(4);
    for k in 0..64i64 {
        db.insert("r", r_tup(k, k * 16, 10, k)).unwrap();
    }
    let snap = db.snapshot();
    let cancelled = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let probe = Arc::clone(&cancelled);
    let opts = ExecOptions {
        batch_rows: 4,
        cancel: Some(Arc::new(move || {
            probe.load(std::sync::atomic::Ordering::SeqCst)
        })),
        ..ExecOptions::default()
    };
    match stream_query_on_snapshot("SELECT-WHEN (V >= 0) (r)", &*snap, &opts).unwrap() {
        StreamedQuery::Rows(mut stream) => {
            let first = stream
                .next_batch()
                .unwrap()
                .expect("one batch before cancel");
            assert!(first.len() <= 4);
            cancelled.store(true, std::sync::atomic::Ordering::SeqCst);
            match stream.next_batch() {
                Err(ExecError::Cancelled) => {}
                other => panic!("expected Cancelled right after the flip, got {other:?}"),
            }
            // After the terminal error the stream is fused.
            assert!(matches!(stream.next_batch(), Ok(None)));
        }
        _ => panic!("relation-sorted query"),
    };
}

/// A big serial relation for the root-gate tests: `n` tuples, every one
/// of which survives `SELECT-WHEN (V >= 0)`.
fn big(n: i64) -> ConcurrentDatabase {
    let db = ConcurrentDatabase::new();
    // Distinct keys by construction: skip `with_tuples`' quadratic check.
    let tuples = (0..n).map(|k| r_tup(k, k % 4000, 10, k)).collect();
    db.create_relation("r", r_scheme()).unwrap();
    db.put_relation("r", Relation::from_distinct_unchecked(r_scheme(), tuples))
        .unwrap();
    db
}

/// A `WHEN` root applies the gate a relation stream does: the probe is
/// checked before every pull, so a cancelled `WHEN` over a 100k-tuple scan
/// stops within one batch — and reports `Cancelled`, never a partial
/// lifespan.
#[test]
fn when_over_a_big_scan_observes_cancel_within_one_batch() {
    let db = big(100_000);
    let snap = db.snapshot();
    let probes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen = Arc::clone(&probes);
    let opts = ExecOptions {
        batch_rows: 256,
        // The probe fires from its third check on: two batches get through.
        cancel: Some(Arc::new(move || {
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 2
        })),
        ..ExecOptions::default()
    };
    for q in [
        "WHEN (r)",
        "WHEN (SELECT-WHEN (V >= 0) (r))",
        "WHEN (SELECT-WHEN (V < 0) (r))",
        "COUNT V (SELECT-WHEN (V >= 0) (r))",
    ] {
        probes.store(0, std::sync::atomic::Ordering::SeqCst);
        match stream_query_on_snapshot(q, &*snap, &opts) {
            Err(hrdm_query::PipelineError::Cancelled) => {}
            Err(e) => panic!("`{q}`: expected Cancelled, got {e}"),
            Ok(_) => panic!("`{q}`: a cancelled query returned a value"),
        }
        // Stopped at the third check (a parallel scan's workers probe too,
        // once per morsel) — nowhere near the ~400 batches of a full drain.
        let checks = probes.load(std::sync::atomic::Ordering::SeqCst);
        assert!(checks < 40, "`{q}`: {checks} probe checks before stopping");
    }
}

/// … and the row cap: rows reaching a `WHEN` or aggregate root count
/// against `max_rows` like rows streamed to a client, in lifespan-only
/// mode too. Rows the chain under the root filters away do not count.
#[test]
fn when_and_aggregates_honour_the_row_cap() {
    let db = big(100_000);
    let snap = db.snapshot();
    let opts = ExecOptions {
        batch_rows: 256,
        max_rows: Some(1_000),
        ..ExecOptions::default()
    };
    for q in [
        "WHEN (r)",
        "WHEN (SELECT-WHEN (V >= 0) (r))",
        "WHEN (PROJECT [V] (r))",
        "TIMESLICE (WHEN (r)) (r)",
        "MAX V (r)",
    ] {
        match stream_query_on_snapshot(q, &*snap, &opts) {
            Err(hrdm_query::PipelineError::Limit(_)) => {}
            Err(e) => panic!("`{q}`: expected Limit, got {e}"),
            Ok(_) => panic!("`{q}`: a row-capped query returned a value"),
        }
    }
    // 500 rows reach the root; the other 99 500 never count.
    match stream_query_on_snapshot("WHEN (SELECT-WHEN (V < 500) (r))", &*snap, &opts) {
        Ok(StreamedQuery::Lifespan { value, .. }) => {
            assert_eq!(value, Lifespan::interval(0, 509))
        }
        Ok(_) => panic!("lifespan-sorted query"),
        Err(e) => panic!("capped although only 500 rows reach the root: {e}"),
    };
}

/// 100 000 tuples in `r` and in `evt`, plus 40 in `g` (on `r`'s scheme):
/// big enough that every input of a binary operator spans hundreds of
/// batches. `evt`'s `AT` points into its own lifespan when `aim` holds —
/// every tuple then joins one `g` tuple — and outside every lifespan
/// otherwise, so that a TIMEJOIN finds no pair at all.
fn big_binary(aim: bool) -> ConcurrentDatabase {
    let db = big(100_000);
    let events = (0..100_000i64)
        .map(|e| {
            let lo = e % 4000;
            evt_tup(e, lo, 10, if aim { lo + 5 } else { 5000 })
        })
        .collect();
    let groups = (0..40i64).map(|k| r_tup(k, k * 100, 99, k)).collect();
    for (name, scheme, tuples) in [("evt", evt_scheme(), events), ("g", r_scheme(), groups)] {
        db.create_relation(name, scheme.clone()).unwrap();
        db.put_relation(name, Relation::from_distinct_unchecked(scheme, tuples))
            .unwrap();
    }
    db
}

/// A binary operator pulls its probe side through the stream's gate, one
/// batch at a time: a cancel that fires mid-probe stops a `UNION`, a
/// `MINUS` and a `TIMEJOIN` over 100 000 tuples at that very check, with
/// `Cancelled` — even where the probe emits nothing (every probe tuple a
/// duplicate, removed, or unjoined), so that no batch reaches the
/// stream's own gate — never with a silent partial `Done`.
#[test]
fn binary_operators_observe_cancel_within_one_probe_batch() {
    let db = big_binary(false);
    let snap = db.snapshot();
    let checks = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    // 100 000 rows in batches of 256: 391 batches, plus one empty pull.
    let (build, probe) = (392, 392);
    for (q, fire_at) in [
        // The build side is drained (392 checks) and streamed out first
        // (391 root pulls); the probe side's duplicates add nothing.
        ("r UNION r", build + 391 + probe / 2),
        ("r MINUS r", build + 1 + probe / 2),
        // `g`'s own partition map is the build table: nothing drained.
        ("evt TIMEJOIN@AT g", 1 + probe / 2),
    ] {
        checks.store(0, std::sync::atomic::Ordering::SeqCst);
        let seen = Arc::clone(&checks);
        let opts = ExecOptions {
            batch_rows: 256,
            workers: 1,
            cancel: Some(Arc::new(move || {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 >= fire_at
            })),
            ..ExecOptions::default()
        };
        let StreamedQuery::Rows(mut stream) = stream_query_on_snapshot(q, &*snap, &opts).unwrap()
        else {
            panic!("`{q}` is relation-sorted");
        };
        let err = loop {
            match stream.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("`{q}`: a cancelled stream ended as a clean Done"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, ExecError::Cancelled, "`{q}`");
        assert_eq!(
            checks.load(std::sync::atomic::Ordering::SeqCst),
            fire_at,
            "`{q}`: the stream kept pulling after the probe fired"
        );
    }
}

/// … and the row cap: a `UNION`, `MINUS` or `TIMEJOIN` whose output
/// outgrows `max_rows` mid-probe ends in `RowLimit`, having streamed no
/// more than the cap.
#[test]
fn binary_operators_hit_the_row_cap_mid_probe() {
    let db = big_binary(true);
    let snap = db.snapshot();
    let opts = ExecOptions {
        batch_rows: 256,
        max_rows: Some(50_000),
        ..ExecOptions::default()
    };
    for q in [
        "TIMESLICE [0..1999] (r) UNION TIMESLICE [2000..4096] (r)",
        "r MINUS TIMESLICE [0..999] (r)",
        "evt TIMEJOIN@AT g",
    ] {
        let StreamedQuery::Rows(mut stream) = stream_query_on_snapshot(q, &*snap, &opts).unwrap()
        else {
            panic!("`{q}` is relation-sorted");
        };
        let mut seen = 0u64;
        let err = loop {
            match stream.next_batch() {
                Ok(Some(b)) => seen += b.len() as u64,
                Ok(None) => {
                    panic!("`{q}`: a capped stream ended as a clean Done after {seen} rows")
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, ExecError::RowLimit(50_000), "`{q}`");
        assert!(seen <= 50_000, "`{q}`: {seen} rows escaped the cap");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(256))]

    /// The oracle: random database states, random partition cuts, random
    /// batch sizes — streaming (serial and forced-parallel) ≡ eval on the
    /// full battery.
    #[test]
    fn streaming_matches_the_evaluator_on_random_states(
        rs in prop::collection::vec(
            ((0i64..40), (0i64..900), (1i64..60), (0i64..100)), 0..24),
        evts in prop::collection::vec(
            ((0i64..20), (0i64..900), (1i64..40), (0i64..950)), 0..12),
        span_log2 in 2u32..9,
        batch_rows in 1usize..64,
    ) {
        let db = populated(span_log2);
        // Duplicate-key inserts are rejected by the engine; that rejection
        // is itself deterministic, so simply skip them.
        for (k, lo, len, v) in rs {
            let _ = db.insert("r", r_tup(k, lo, len, v));
        }
        for (e, lo, len, at) in evts {
            let _ = db.insert("evt", evt_tup(e, lo, len, at));
        }
        let snap = db.snapshot();
        assert_battery_agrees(&snap, batch_rows, "random-state");
    }

    /// Live-writer interleavings: a writer races the reader; every
    /// snapshot the reader takes mid-flight must answer identically
    /// through the streaming and materializing paths (snapshot isolation
    /// makes each comparison well-defined regardless of the interleaving).
    #[test]
    fn streaming_agrees_with_the_evaluator_under_a_live_writer(
        writes in prop::collection::vec(
            ((0i64..60), (0i64..900), (1i64..60), (0i64..100)), 8..32),
        batch_rows in 1usize..32,
    ) {
        let db = Arc::new(populated(4));
        // Seed state so the first snapshots are non-trivial.
        for k in 0..8i64 {
            db.insert("r", r_tup(k, k * 40, 20, k)).unwrap();
        }
        let writer_db = Arc::clone(&db);
        let writer = std::thread::spawn(move || {
            for (k, lo, len, v) in writes {
                // Duplicate keys are rejected; the race is the point here.
                let _ = writer_db.insert("r", r_tup(k, lo, len, v));
            }
        });
        let subset = [
            "TIMESLICE [10..90] (SELECT-WHEN (V >= 20) (r))",
            "SELECT-WHEN (K = 5) (r)",
            "WHEN (TIMESLICE [5..95] (r))",
        ];
        let parallel = ExecOptions {
            batch_rows,
            workers: 4,
            parallel_min_rows: 1,
            ..ExecOptions::default()
        };
        for _ in 0..4 {
            let snap = db.snapshot();
            for q in subset {
                assert_stream_matches_eval(&snap, q, &parallel, "live-writer");
            }
        }
        writer.join().unwrap();
        // Post-race: the settled state agrees on the full battery.
        assert_battery_agrees(&db.snapshot(), batch_rows, "post-race");
    }
}

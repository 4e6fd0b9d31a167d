//! The attached engines against `eval.rs` (see `oracle/mod.rs`): a
//! partitioned and an unpartitioned engine fed one generated history,
//! recovery from a torn WAL, racing writers, `hrdmd` over loopback, and
//! partition pruning as EXPLAIN shows it.

mod common;
mod oracle;

use hrdm_net::{Client, NetError, Server, ServerConfig, ServerHandle, WireError};
use hrdm_query::{
    evaluate, explain_with_access, parse_expr, parse_query, run_query, IndexSource, QueryResult,
};
use hrdm_storage::{ConcurrentDatabase, PartitionPolicy};
use oracle::matrix::{attached, canon, entry, failure, on, planned_on, run_matrix, Opened};
use oracle::world::{create_relations, r_scheme, r_tup, tmp, State, World, BATTERY};
use std::sync::Arc;

/// Both attached engines, and the partitioned one recovered from a torn
/// WAL, answer as `eval.rs` does after every generated history; on the
/// way the engines acknowledge alike, count alike and write
/// byte-identical WALs. At least 256 histories × 22 queries per engine.
#[test]
fn partitioned_engine_is_observationally_identical() {
    run_matrix(
        5_632,
        &[
            entry("attached", |w| attached(State::Final, w.part.snapshot())),
            entry("attached/unpartitioned", |w| {
                attached(State::Final, w.reference.snapshot())
            }),
            entry("recovered", |w| planned_on(State::Recovered, &w.recovered)),
        ],
    );
}

/// `hrdmd` over loopback, serving the attached engine in 3-row chunks.
fn loopback(w: &World) -> Opened<'_> {
    /// Stops the server when the entry is done with it.
    struct Stop(Option<ServerHandle>);
    impl Drop for Stop {
        fn drop(&mut self) {
            if let Some(server) = self.0.take() {
                server.shutdown();
            }
        }
    }
    let config = ServerConfig {
        chunk_rows: 3,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&w.part), config).unwrap();
    let server = server.spawn().unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let stop = Stop(Some(server));
    on(State::Final, move |_, text| {
        // Captures `stop`: the server lives as long as this entry.
        let _serving = &stop;
        match client.query(text) {
            Err(NetError::Remote(WireError::Model { message, .. })) => Some(Err(message)),
            Err(e) => panic!("hrdmd `{text}`: {e}"),
            Ok(r) => Some(Ok(r)),
        }
    })
}

/// `hrdmd` over loopback serves what `eval.rs` answers.
#[test]
fn wire_answers_match_the_reference_evaluator() {
    run_matrix(1_000, &[entry("hrdmd/loopback", loopback)]);
}

/// The canonical answer to `text` on `src`, planned — checked on the way
/// to equal `eval.rs`'s on the same source.
fn checked_answer<S: IndexSource>(src: &S, text: &str) -> String {
    let q = parse_query(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
    let want = canon(&evaluate(&q, src));
    assert_eq!(
        canon(&run_query(&q, src).map_err(failure)),
        want,
        "`{text}` diverged from eval.rs"
    );
    want
}

/// Racing writers feed both engines the same disjoint-key workload and
/// snapshot them mid-flight: every such snapshot answers as `eval.rs`
/// does on it, and the engines end with equal answers to the battery and
/// equal `\stats` op counts.
#[test]
fn concurrent_writers_leave_identical_engines() {
    let dirs = [tmp("race-part"), tmp("race-ref")];
    let policies = [PartitionPolicy::SpanLog2(4), PartitionPolicy::Unpartitioned];
    let engines: Vec<ConcurrentDatabase> = dirs
        .iter()
        .zip(policies)
        .map(|(dir, policy)| {
            let db = ConcurrentDatabase::open(dir).unwrap();
            db.set_partition_policy(policy);
            create_relations(&db);
            db
        })
        .collect();
    for db in &engines {
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                scope.spawn(move || {
                    for i in 0..40i64 {
                        let k = w * 1000 + i;
                        db.insert("r", r_tup(k, (k * 13) % 900, 25, k)).unwrap();
                        if i % 16 == 0 {
                            let snap = db.snapshot();
                            checked_answer(&*snap, "TIMESLICE [50..120] (r)");
                            checked_answer(&*snap, "SELECT-WHEN (V >= 10) (r)");
                        }
                    }
                });
            }
        });
    }
    let (part, reference) = (engines[0].snapshot(), engines[1].snapshot());
    for (name, q) in BATTERY {
        let answers = (checked_answer(&*part, q), checked_answer(&*reference, q));
        assert_eq!(answers.0, answers.1, "{name} `{q}`");
    }
    assert_eq!(engines[0].stats().ops, engines[1].stats().ops);
    drop(engines);
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A selective TIME-SLICE on a dense 64-partition relation plans
/// `partitions: 62/64 pruned` — also under a select, whose bound the
/// optimizer pushes down to the scan — and answers exactly.
#[test]
fn explain_prunes_selective_timeslice_on_64_partitions() {
    let db = ConcurrentDatabase::new();
    db.set_partition_policy(PartitionPolicy::SpanLog2(4));
    db.create_relation("r", r_scheme()).unwrap();
    for k in 0..64 {
        db.insert("r", r_tup(k, k * 16, 10, k)).unwrap();
    }
    let snap = db.snapshot();
    assert_eq!(snap.partitions("r").unwrap().partition_count(), 64);
    for q in [
        "TIMESLICE [100..120] (r)",
        "TIMESLICE [100..120] (SELECT-WHEN (V >= 0) (r))",
    ] {
        let text = explain_with_access(&parse_expr(q).unwrap(), &*snap);
        assert!(text.contains("partitions: 62/64 pruned"), "{q}:\n{text}");
        let parsed = parse_query(q).unwrap();
        let answer = run_query(&parsed, &*snap).unwrap();
        assert_eq!(answer, evaluate(&parsed, &*snap).unwrap(), "{q}");
        match answer {
            QueryResult::Relation(r) => assert_eq!(r.len(), 2, "{q}"),
            other => panic!("{q}: {other:?}"),
        }
    }
}

//! Structure sharing between published snapshots and the writer: what a
//! snapshot costs the next commit, what two snapshots share, and that a
//! snapshot stays exactly what it was however much the database moves on.

use hrdm_core::prelude::*;
use hrdm_storage::{ConcurrentDatabase, Database, DbSnapshot, PartitionPolicy, WalRecord};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// 64 partitions of 2^14 chronons over the era.
const SPAN_LOG2: u32 = 14;
const ERA: i64 = 1 << 20;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hrdm-sharing-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, ERA);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

/// Key `k`, born at a chronon spread over the whole era.
fn tup(k: i64) -> Tuple {
    tup_at(k, k.wrapping_mul(10_487).rem_euclid(ERA - 64))
}

fn tup_at(k: i64, lo: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + 50);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

/// A database holding keys `0..n`, loaded in one batch (in place: nothing
/// shares the tables yet).
fn preloaded(mut db: Database, n: i64) -> ConcurrentDatabase {
    db.set_partition_policy(PartitionPolicy::SpanLog2(SPAN_LOG2));
    db.create_relation("r", scheme()).unwrap();
    let batch = (0..n)
        .map(|k| WalRecord::Insert {
            relation: "r".into(),
            tuple: tup(k),
        })
        .collect();
    for r in db.commit_batch(batch) {
        r.unwrap();
    }
    ConcurrentDatabase::from_database(db)
}

/// Everything a reader can ask a snapshot about `r`, in comparable form.
#[derive(PartialEq, Debug)]
struct Observed {
    version: u64,
    tuples: Vec<Tuple>,
    key_probes: Vec<Vec<usize>>,
    window: Vec<usize>,
    partition_sizes: Vec<(i64, usize)>,
}

fn observe(snap: &DbSnapshot, probe_keys: &[i64]) -> Observed {
    let rel = snap.relation("r").unwrap();
    let key = snap.key_index("r").unwrap();
    let parts = snap.partitions("r").unwrap();
    Observed {
        version: snap.version(),
        tuples: rel.iter().cloned().collect(),
        key_probes: probe_keys
            .iter()
            .map(|&k| key.lookup(&[Value::Int(k)]).to_vec())
            .collect(),
        window: parts.prune_positions(&Lifespan::interval(ERA / 2, ERA / 2 + 5_000)),
        partition_sizes: parts.iter().map(|(id, p)| (id, p.len())).collect(),
    }
}

/// The scaling acceptance bound: with 100 000 tuples held, 10 000 more
/// single-op commits — each followed by its publish, a reader holding
/// the previous snapshot — take under 2 s in all. (A flat vector and
/// hash map cost 3.6 ms per commit at 12 000 tuples already.)
#[test]
fn ten_thousand_commits_into_100k_tuples_take_under_two_seconds() {
    let db = preloaded(Database::new(), 100_000);
    let mut held = db.snapshot();
    let started = Instant::now();
    for k in 100_000..110_000 {
        db.insert("r", tup(k)).unwrap();
        held = db.snapshot();
    }
    let took = started.elapsed();
    assert_eq!(held.relation("r").unwrap().len(), 110_000);
    assert!(took.as_secs_f64() < 2.0, "10 000 commits took {took:?}");
}

/// Two consecutive published snapshots share every partition, tuple leaf
/// and key tier the commit between them did not touch — by allocation,
/// not merely by value.
#[test]
fn consecutive_snapshots_share_untouched_partitions_leaves_and_tiers() {
    let db = preloaded(Database::new(), 20_000);
    // One commit first, so the key index has frozen its bulk tier and
    // opened a small one on top (the steady state under publishing).
    db.insert("r", tup_at(20_000, 3 << SPAN_LOG2)).unwrap();
    let before = db.snapshot();
    let landing = 5i64; // partition id of the next tuple's birth
    db.insert("r", tup_at(20_001, landing << SPAN_LOG2))
        .unwrap();
    let after = db.snapshot();

    let (rel_a, rel_b) = (before.relation("r").unwrap(), after.relation("r").unwrap());
    assert_eq!((rel_a.len(), rel_b.len()), (20_001, 20_002));
    // Tuple leaves (64 tuples each): every full leaf is the same
    // allocation; only the tail the new tuple went into was copied.
    let tail_start = 20_001 - 20_001 % 64;
    for pos in (0..tail_start).step_by(64) {
        assert!(
            rel_b.tuples().shares_leaf_with(rel_a.tuples(), pos),
            "leaf at {pos}"
        );
    }
    assert!(!rel_b.tuples().shares_leaf_with(rel_a.tuples(), tail_start));

    // Partitions: all but the one the tuple landed in.
    let (parts_a, parts_b) = (
        before.partitions("r").unwrap(),
        after.partitions("r").unwrap(),
    );
    assert_eq!(parts_a.partition_count(), 64);
    for (id, _) in parts_a.iter() {
        assert_eq!(
            parts_b.shares_partition_with(parts_a, id),
            id != landing,
            "partition {id}"
        );
    }

    // Key index: the frozen bulk tier.
    let (key_a, key_b) = (
        before.key_index("r").unwrap(),
        after.key_index("r").unwrap(),
    );
    assert_eq!((key_a.tier_count(), key_b.tier_count()), (2, 2));
    assert!(key_b.shares_tier_with(key_a, 0), "frozen bulk tier");
    assert!(!key_b.shares_tier_with(key_a, 1), "copied small tier");
}

/// A snapshot taken before a commit still answers exactly as it did —
/// tuples, key probes, lifespan probes, partition counts — after 10 000
/// later commits (which fold every key tier and merge the lifespan run
/// many times over), a checkpoint, and a repartition.
#[test]
fn an_old_snapshot_survives_commits_folds_checkpoint_and_repartition() {
    let dir = tmp("old-snapshot");
    let db = preloaded(Database::open(&dir).unwrap(), 2_000);
    db.insert("r", tup(2_000)).unwrap();
    let probes = [0, 1_999, 2_000, 2_001, 7_000, 11_999];
    let old: Arc<DbSnapshot> = db.snapshot();
    let expected = observe(&old, &probes);
    assert_eq!(expected.tuples.len(), 2_001);
    assert_eq!(expected.key_probes[3], Vec::<usize>::new(), "2001: not yet");

    let counted = || {
        hrdm_obs::global()
            .counter_value("hrdm_storage_index_folds_total")
            .unwrap_or(0)
    };
    let (old_key, counted_before) = (old.key_index("r").unwrap(), counted());
    for k in 2_001..12_001 {
        db.insert("r", tup(k)).unwrap();
    }
    let live = db.snapshot();
    let live_key = live.key_index("r").unwrap();
    let key_folds = live_key.folds() - old_key.folds();
    assert!(
        key_folds > 5,
        "the run must have folded key tiers ({key_folds})"
    );
    // The fold counter adds the landing partitions' run merges on top:
    // ~156 inserts into each of 64 partitions freeze and merge runs there.
    // (Other tests of this binary only ever add to the counter.)
    if hrdm_obs::enabled() {
        let counted = counted() - counted_before;
        assert!(
            counted > key_folds,
            "{counted} counted, {key_folds} key folds"
        );
    }
    assert!(
        !live_key.shares_tier_with(old_key, 0),
        "every tier the old snapshot holds has been folded away in the live index"
    );
    db.checkpoint().unwrap();
    db.set_partition_policy(PartitionPolicy::SpanLog2(10));

    assert_eq!(observe(&old, &probes), expected);
    // And the live state moved on as it should have.
    let now = observe(&db.snapshot(), &probes);
    assert_eq!(now.tuples.len(), 12_001);
    assert_eq!(now.key_probes[3], vec![2_001]);
    assert!(now.partition_sizes.len() > expected.partition_sizes.len());
    std::fs::remove_dir_all(&dir).ok();
}

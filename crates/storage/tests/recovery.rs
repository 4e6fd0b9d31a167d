//! Crash-injection tests for the durable attached mode: a kill at any
//! instant — mid-write, mid-checkpoint, with a torn WAL tail — must leave
//! a database that `Database::open` recovers without losing an
//! acknowledged write.

use hrdm_core::prelude::*;
use hrdm_storage::{Database, PagedDatabase, Wal, WalRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hrdm-recovery-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn scheme() -> Scheme {
    Scheme::builder()
        .key_attr("K", ValueKind::Int, Lifespan::interval(0, 100))
        .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 100))
        .build()
        .unwrap()
}

fn tup(k: i64, lo: i64, hi: i64) -> Tuple {
    let life = Lifespan::interval(lo, hi);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k * 10)))
        .finish(&scheme())
        .unwrap()
}

/// The single WAL file of the directory (there is exactly one per epoch).
fn wal_file(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("wal.") && name.ends_with(".log")
        })
        .collect();
    assert_eq!(found.len(), 1, "exactly one WAL per epoch");
    found.pop().unwrap()
}

/// Acceptance scenario 1: insert → process "kill" (no checkpoint) →
/// `Database::open` recovers the inserted tuples from the WAL alone.
#[test]
fn kill_without_checkpoint_recovers_from_wal() {
    let dir = tmp("no-checkpoint");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        for k in 0..50 {
            db.insert("emp", tup(k, k, k + 20)).unwrap();
        }
        // Simulated kill: drop without checkpoint or save. Every insert
        // was fsync'd to the WAL before it was acknowledged.
    }
    let back = Database::open(&dir).unwrap();
    let rel = back.relation("emp").expect("relation recovered");
    assert_eq!(rel.len(), 50);
    assert_eq!(rel.tuples()[17], tup(17, 17, 37));
    // The recovered database has live access paths for the planner.
    assert_eq!(back.partitions("emp").unwrap().tuple_count(), 50);
    assert_eq!(back.key_index("emp").unwrap().distinct_keys(), 50);
    std::fs::remove_dir_all(dir).ok();
}

/// Acceptance scenario 2a: a kill *before* the checkpoint's commit point
/// (the catalog rename) leaves the old epoch fully intact — debris of the
/// aborted checkpoint (new-epoch heap files, some torn) is ignored.
#[test]
fn kill_mid_checkpoint_before_commit_keeps_old_epoch() {
    let dir = tmp("mid-checkpoint-pre");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.insert("emp", tup(2, 5, 30)).unwrap();
    }
    // Fabricate the moment just before the commit rename: new-epoch files
    // exist (one of them torn mid-write), the catalog still says epoch 0.
    std::fs::write(dir.join("emp.1.heap"), b"partial garbage, not a page").unwrap();
    std::fs::write(dir.join("wal.1.log"), b"").unwrap();
    std::fs::write(dir.join("catalog.hrdm.tmp"), b"half a catal").unwrap();

    let back = Database::open(&dir).unwrap();
    assert_eq!(back.epoch(), Some(0));
    assert_eq!(back.relation("emp").unwrap().len(), 2);
    // The debris was swept.
    assert!(!dir.join("emp.1.heap").exists());
    assert!(!dir.join("catalog.hrdm.tmp").exists());
    std::fs::remove_dir_all(dir).ok();
}

/// Acceptance scenario 2b: a kill *after* the commit point but before the
/// old epoch's files are swept — both generations on disk, the new catalog
/// must win and the old WAL must not be replayed (no double-apply).
#[test]
fn kill_mid_checkpoint_after_commit_uses_new_epoch() {
    let dir = tmp("mid-checkpoint-post");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), Some(1));
    }
    // Resurrect plausible old-epoch debris: a WAL that would double-apply
    // the insert if it were (wrongly) replayed, and a stale heap file.
    {
        let mut old_wal = Wal::open(&dir.join("wal.0.log")).unwrap();
        old_wal
            .append(&WalRecord::CreateRelation {
                name: "emp".into(),
                scheme: scheme(),
            })
            .unwrap();
        old_wal
            .append(&WalRecord::Insert {
                relation: "emp".into(),
                tuple: tup(1, 0, 10),
            })
            .unwrap();
    }
    std::fs::write(dir.join("emp.0.heap"), b"stale").unwrap();

    let back = Database::open(&dir).unwrap();
    assert_eq!(back.epoch(), Some(1));
    assert_eq!(back.relation("emp").unwrap().len(), 1);
    assert!(
        !dir.join("wal.0.log").exists(),
        "old WAL swept, not replayed"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A torn final WAL record (the classic kill-mid-append) is truncated away
/// on open; everything before it survives, and the database keeps working.
#[test]
fn torn_wal_tail_recovers_prefix_at_every_cut() {
    let dir = tmp("torn-tail");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        for k in 0..10 {
            db.insert("emp", tup(k, 0, 10 + k)).unwrap();
        }
    }
    let wal = wal_file(&dir);
    let full = std::fs::read(&wal).unwrap();
    // Cut the log at a spread of byte offsets; each cut must recover a
    // *prefix* of the inserts (0..=10 tuples), never an error.
    for cut in [full.len() - 1, full.len() - 7, full.len() / 2, 40, 9, 1] {
        let case = tmp("torn-cut");
        std::fs::create_dir_all(&case).unwrap();
        std::fs::write(case.join("wal.0.log"), &full[..cut]).unwrap();
        let back = Database::open(&case).unwrap();
        let n = back.relation("emp").map_or(0, Relation::len);
        assert!(n <= 10, "cut {cut}: {n} tuples");
        for (i, t) in back
            .relation("emp")
            .into_iter()
            .flat_map(Relation::iter)
            .enumerate()
        {
            assert_eq!(t, &tup(i as i64, 0, 10 + i as i64), "cut {cut} prefix");
        }
        // The truncation healed the log: a reopen changes nothing.
        drop(back);
        let again = Database::open(&case).unwrap();
        assert_eq!(again.relation("emp").map_or(0, Relation::len), n);
        std::fs::remove_dir_all(case).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Writes after recovery-from-torn-tail land cleanly on the healed log.
#[test]
fn writes_continue_after_torn_tail_recovery() {
    let dir = tmp("torn-then-write");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.insert("emp", tup(2, 0, 10)).unwrap();
    }
    let wal = wal_file(&dir);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let mut back = Database::open(&dir).unwrap();
    assert_eq!(back.relation("emp").unwrap().len(), 1, "tuple 2 torn away");
    // Key 2 is free again (its insert was never durable) — rewrite it.
    back.insert("emp", tup(2, 5, 15)).unwrap();
    back.insert("emp", tup(3, 0, 10)).unwrap();
    drop(back);
    let again = Database::open(&dir).unwrap();
    assert_eq!(again.relation("emp").unwrap().len(), 3);
    std::fs::remove_dir_all(dir).ok();
}

/// A WAL that cannot be read fails every open — attached, read-only and
/// paged — with an error naming the log file.
#[test]
fn unreadable_wal_errors_name_the_log_file() {
    let dir = tmp("unreadable-wal");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        db.checkpoint().unwrap();
    }
    let wal = wal_file(&dir);
    std::fs::remove_file(&wal).unwrap();
    std::fs::create_dir(&wal).unwrap();
    let errors = [
        Database::open(&dir).map(drop).unwrap_err(),
        Database::load(&dir).map(drop).unwrap_err(),
        PagedDatabase::open(&dir).map(drop).unwrap_err(),
    ];
    for err in errors {
        let err = err.to_string();
        assert!(err.contains(&wal.display().to_string()), "{err}");
    }
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------------
// Partition-aware crash injection: checkpoints now write one heap file per
// chronon-range partition and rewrite only the dirty ones, so the
// interesting kills are mid-checkpoint with a *partial* set of new-epoch
// partition files on disk, torn per-partition files, and partition maps
// that changed between epochs.
// ---------------------------------------------------------------------------

/// A kill mid-checkpoint after only *some* dirty partitions were rewritten
/// (one of them torn mid-write): the catalog still names the old epoch, so
/// recovery must serve the old epoch untouched and sweep the debris.
#[test]
fn kill_mid_checkpoint_with_partially_rewritten_partitions() {
    let dir = tmp("partial-partitions");
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(hrdm_storage::PartitionPolicy::SpanLog2(4)); // span 16
        db.create_relation("emp", scheme()).unwrap();
        // Three partitions: births at 0, 20, 40.
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.insert("emp", tup(2, 20, 30)).unwrap();
        db.insert("emp", tup(3, 40, 50)).unwrap();
        db.checkpoint().unwrap();
        db.insert("emp", tup(4, 1, 9)).unwrap(); // dirties partition 0 only
    }
    // Fabricate the kill: epoch-2 files for *some* partitions exist — one
    // complete-looking, one torn mid-write — and the catalog still says
    // epoch 1.
    std::fs::copy(dir.join("emp.1.p1.heap"), dir.join("emp.2.p1.heap")).unwrap();
    std::fs::write(dir.join("emp.2.p0.heap"), b"torn partition heap").unwrap();
    std::fs::write(dir.join("emp.2.p0.heap.tmp"), b"half").unwrap();

    let back = Database::open(&dir).unwrap();
    assert_eq!(back.epoch(), Some(1));
    assert_eq!(back.relation("emp").unwrap().len(), 4, "WAL tail replayed");
    // Pre-commit debris of the aborted checkpoint was swept.
    assert!(!dir.join("emp.2.p0.heap").exists());
    assert!(!dir.join("emp.2.p1.heap").exists());
    assert!(!dir.join("emp.2.p0.heap.tmp").exists());
    std::fs::remove_dir_all(dir).ok();
}

/// A torn *committed* partition heap file is real corruption (everything
/// under the catalog's epoch was fsync'd before the commit rename), so
/// open must fail loudly, naming the offending file — never half-load.
#[test]
fn torn_committed_partition_heap_fails_loudly() {
    let dir = tmp("torn-committed-partition");
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(hrdm_storage::PartitionPolicy::SpanLog2(4));
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.insert("emp", tup(2, 20, 30)).unwrap();
        db.checkpoint().unwrap();
    }
    let victim = dir.join("emp.1.p1.heap");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let err = match Database::open(&dir) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("torn committed partition file must not load"),
    };
    assert!(
        err.contains("emp.1.p1.heap"),
        "error must name the torn partition file: {err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A partition heap whose tuple count diverges from the catalog manifest
/// is detected (a swapped or truncated-at-a-page-boundary file would
/// otherwise load silently).
#[test]
fn partition_manifest_count_mismatch_detected() {
    let dir = tmp("manifest-mismatch");
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(hrdm_storage::PartitionPolicy::SpanLog2(4));
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        db.insert("emp", tup(2, 0, 12)).unwrap(); // same partition as 1
        db.insert("emp", tup(3, 40, 50)).unwrap();
        db.checkpoint().unwrap();
    }
    // Swap partition 2's file in place of partition 0's: both are intact
    // heap files, but the tuple counts disagree with the manifest.
    std::fs::copy(dir.join("emp.1.p2.heap"), dir.join("emp.1.p0.heap")).unwrap();
    let err = match Database::open(&dir) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("manifest mismatch must not load"),
    };
    assert!(
        err.contains("manifest") || err.contains("key"),
        "count/content mismatch must be detected: {err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The partition map changes between epochs (repartition, then
/// checkpoint): recovery always follows the *persisted* policy of the
/// epoch it lands on — including a kill after the repartition but before
/// the checkpoint that would have persisted it.
#[test]
fn recovery_across_partition_map_change_between_epochs() {
    use hrdm_storage::PartitionPolicy;
    let dir = tmp("repartition-epochs");
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(6)); // span 64
        db.create_relation("emp", scheme()).unwrap();
        for k in 0..12 {
            db.insert("emp", tup(k, k * 5, k * 5 + 8)).unwrap();
        }
        db.checkpoint().unwrap(); // epoch 1 persists span 64
        db.set_partition_policy(PartitionPolicy::SpanLog2(3)); // span 8: splits hot partitions
        db.insert("emp", tup(50, 3, 9)).unwrap();
        db.checkpoint().unwrap(); // epoch 2 persists span 8
        db.insert("emp", tup(51, 60, 70)).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(5)); // never checkpointed
                                                               // Kill.
    }
    let back = Database::open(&dir).unwrap();
    assert_eq!(back.epoch(), Some(2));
    assert_eq!(back.relation("emp").unwrap().len(), 14);
    // The never-checkpointed policy died with the process; epoch 2's
    // persisted policy governs recovery.
    assert_eq!(back.partition_policy(), PartitionPolicy::SpanLog2(3));
    let parts = back.partitions("emp").unwrap();
    assert_eq!(parts.tuple_count(), 14);
    // And the rebuilt map answers pruning queries over the merged state.
    let hits = parts.prune_positions(&Lifespan::interval(0, 10));
    let expect: Vec<usize> = back
        .relation("emp")
        .unwrap()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.lifespan().intersects(&Lifespan::interval(0, 10)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits, expect);
    std::fs::remove_dir_all(dir).ok();
}

/// `checkpoint()` rewrites only dirty partitions: clean ones are carried
/// into the new epoch as hard links to the old epoch's files (same
/// inode), dirty ones get fresh files.
#[cfg(unix)]
#[test]
fn checkpoint_links_clean_partitions_and_rewrites_dirty_ones() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmp("dirty-only");
    let mut db = Database::open(&dir).unwrap();
    db.set_partition_policy(hrdm_storage::PartitionPolicy::SpanLog2(4));
    db.create_relation("emp", scheme()).unwrap();
    db.insert("emp", tup(1, 0, 10)).unwrap(); // partition 0
    db.insert("emp", tup(2, 20, 30)).unwrap(); // partition 1
    db.insert("emp", tup(3, 40, 50)).unwrap(); // partition 2
    db.checkpoint().unwrap();
    let ino = |p: std::path::PathBuf| std::fs::metadata(p).unwrap().ino();
    let old: Vec<u64> = (0..3)
        .map(|k| ino(dir.join(format!("emp.1.p{k}.heap"))))
        .collect();

    db.insert("emp", tup(4, 21, 29)).unwrap(); // dirties partition 1 only
    db.checkpoint().unwrap();
    let new: Vec<u64> = (0..3)
        .map(|k| ino(dir.join(format!("emp.2.p{k}.heap"))))
        .collect();
    assert_eq!(new[0], old[0], "clean partition 0 hard-linked");
    assert_eq!(new[2], old[2], "clean partition 2 hard-linked");
    assert_ne!(new[1], old[1], "dirty partition 1 rewritten");

    // The linked epoch still opens to the full state.
    drop(db);
    let back = Database::open(&dir).unwrap();
    assert_eq!(back.relation("emp").unwrap().len(), 4);
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------------
// Property: for a random op sequence with a kill at a random point (torn
// tail included), open() recovers a state equal to some prefix of the
// acknowledged history — and never errors.
// ---------------------------------------------------------------------------

/// One scripted mutation against the database.
#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Insert {
        rel: u8,
        key: i64,
        lo: i64,
        len: i64,
    },
    Put {
        rel: u8,
        keys: Vec<i64>,
    },
    Checkpoint,
}

fn rel_name(id: u8) -> String {
    format!("rel {}", id % 3) // spaces exercise heap-path escaping too
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Create),
        ((0u8..3), (0i64..40), (0i64..60), (1i64..30))
            .prop_map(|(rel, key, lo, len)| { Op::Insert { rel, key, lo, len } }),
        ((0u8..3), prop::collection::vec(0i64..40, 0..5))
            .prop_map(|(rel, keys)| Op::Put { rel, keys }),
        Just(Op::Checkpoint),
    ]
}

/// Applies `op` to an attached database, mirroring it on a detached oracle.
/// Both must agree on success/failure. Returns whether the op was acked.
fn apply(db: &mut Database, oracle: &mut Database, op: &Op) -> bool {
    match op {
        Op::Create(id) => {
            let a = db.create_relation(&rel_name(*id), scheme());
            let b = oracle.create_relation(&rel_name(*id), scheme());
            assert_eq!(a.is_ok(), b.is_ok(), "create {id}");
            a.is_ok()
        }
        Op::Insert { rel, key, lo, len } => {
            let t = tup(*key, *lo, lo + len);
            let a = db.insert(&rel_name(*rel), t.clone());
            let b = oracle.insert(&rel_name(*rel), t);
            assert_eq!(a.is_ok(), b.is_ok(), "insert {key} into {rel}");
            a.is_ok()
        }
        Op::Put { rel, keys } => {
            let mut uniq: Vec<i64> = keys.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let tuples: Vec<Tuple> = uniq.iter().map(|&k| tup(k, 0, 10)).collect();
            let contents = Relation::with_tuples(scheme(), tuples).unwrap();
            let a = db.put_relation(&rel_name(*rel), contents.clone());
            let b = oracle.put_relation(&rel_name(*rel), contents);
            assert_eq!(a.is_ok(), b.is_ok(), "put into {rel}");
            a.is_ok()
        }
        Op::Checkpoint => {
            db.checkpoint().unwrap();
            true // no-op on the oracle: contents are unchanged
        }
    }
}

type Snapshot = BTreeMap<String, Relation>;

fn snapshot(db: &Database) -> Snapshot {
    db.relation_names()
        .map(|n| (n.to_string(), db.relation(n).unwrap().clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(24))]

    #[test]
    fn random_kill_recovers_a_prefix_consistent_state(
        ops in prop::collection::vec(op_strategy(), 1..14),
        cut_back in 0u64..96,
    ) {
        let dir = tmp("prop");
        let mut db = Database::open(&dir).unwrap();
        let mut oracle = Database::new();
        // History of states after each acknowledged mutation (the empty
        // state is a valid recovery target too).
        let mut history: Vec<Snapshot> = vec![snapshot(&oracle)];
        for op in &ops {
            if apply(&mut db, &mut oracle, op) {
                history.push(snapshot(&oracle));
            }
        }
        // Kill: drop the live database, then tear the WAL tail by a random
        // number of bytes (0 = clean kill between appends).
        drop(db);
        let wal = wal_file(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let torn_len = len.saturating_sub(cut_back);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(torn_len)
            .unwrap();

        let back = Database::open(&dir).unwrap(); // must never error
        let got = snapshot(&back);
        let matches_prefix = history.iter().any(|h| h == &got);
        prop_assert!(
            matches_prefix,
            "recovered state equals no acknowledged prefix: {} relations, history of {}",
            got.len(),
            history.len()
        );
        // Torn bytes can only lose the *unacknowledged tail*: everything
        // acknowledged before the surviving WAL prefix is present, so the
        // recovered state can never be shorter than the last checkpoint.
        std::fs::remove_dir_all(dir).ok();
    }
}

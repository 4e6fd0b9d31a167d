//! Concurrency tests for the snapshot-isolated reader / group-commit
//! writer model: readers must only ever observe **prefix-consistent**
//! snapshots (the result of the first `k` commits, for some `k`, never a
//! subset with holes), snapshots must survive checkpoints and WAL
//! rotation untouched, and the whole query pipeline must agree with the
//! storage-level view.

use hrdm_core::prelude::*;
use hrdm_storage::{ConcurrentDatabase, Database};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hrdm-conctest-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

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

/// The keys a snapshot's relation holds, as a sorted set.
fn observed_keys(snap: &hrdm_storage::DbSnapshot) -> BTreeSet<i64> {
    snap.relation("r")
        .map(|r| {
            r.iter()
                .map(|t| match t.key_values(r.scheme()).unwrap()[0] {
                    Value::Int(k) => k,
                    ref other => panic!("non-int key {other:?}"),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One writer inserts keys `0, 1, 2, …` in order; readers racing with it
/// must only ever see a **contiguous prefix** `{0, …, len-1}` — the
/// single-writer form of prefix consistency, checked deterministically
/// (the oracle is exact, not statistical).
#[test]
fn readers_observe_contiguous_prefixes_of_a_sequential_writer() {
    const N: i64 = 300;
    let db = Arc::new(ConcurrentDatabase::new());
    db.create_relation("r", scheme()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut last_len = 0usize;
                let mut checks = 0u64;
                // Check, then look at the flag: every reader observes at
                // least once however fast the writer finishes.
                loop {
                    let snap = db.snapshot();
                    let keys = observed_keys(&snap);
                    let len = keys.len();
                    // Contiguity: exactly the keys 0..len.
                    assert_eq!(
                        keys,
                        (0..len as i64).collect::<BTreeSet<i64>>(),
                        "snapshot is not a contiguous prefix"
                    );
                    // Monotonicity across successive snapshots.
                    assert!(snap.version() >= last_version, "version went backwards");
                    assert!(len >= last_len, "observed state went backwards");
                    last_version = snap.version();
                    last_len = len;
                    checks += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                checks
            })
        })
        .collect();

    for k in 0..N {
        db.insert("r", tup(k)).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(checks > 0, "readers never got to observe anything");
    assert_eq!(observed_keys(&db.snapshot()).len(), N as usize);
}

/// A reader holding a pre-checkpoint snapshot still scans correctly after
/// `checkpoint()` rotates epochs and deletes the old WAL — deterministic
/// coverage for concurrent reads during checkpoint.
#[test]
fn pre_checkpoint_snapshot_scans_correctly_after_epoch_rotation() {
    let dir = tmp("ckpt-snapshot");
    let db = ConcurrentDatabase::open(&dir).unwrap();
    db.create_relation("r", scheme()).unwrap();
    for k in 0..50 {
        db.insert("r", tup(k)).unwrap();
    }
    let old = db.snapshot();
    assert_eq!(old.epoch(), Some(0));

    // Rotate: writes + checkpoint move the database to epoch 1 and delete
    // `wal.0.log` out from under the old snapshot.
    for k in 50..80 {
        db.insert("r", tup(k)).unwrap();
    }
    db.checkpoint().unwrap();
    assert!(!dir.join("wal.0.log").exists(), "old WAL must be gone");
    assert!(dir.join("wal.1.log").exists());

    // The old snapshot still scans its 50 tuples — storage-level…
    assert_eq!(observed_keys(&old), (0..50).collect::<BTreeSet<i64>>());
    // …and through its frozen index, position for position.
    assert_eq!(old.partitions("r").unwrap().tuple_count(), 50);
    let pos = old.key_index("r").unwrap().lookup(&[Value::Int(17)]);
    assert_eq!(pos.len(), 1);
    let t = old.relation("r").unwrap().tuple_at(pos[0]).unwrap();
    assert_eq!(
        t.key_values(old.relation("r").unwrap().scheme()).unwrap(),
        vec![Value::Int(17)]
    );
    // The live database sees all 80, before and after reopen.
    assert_eq!(observed_keys(&db.snapshot()).len(), 80);
    drop(db);
    let back = Database::open(&dir).unwrap();
    assert_eq!(back.relation("r").unwrap().len(), 80);
    std::fs::remove_dir_all(&dir).ok();
}

// Insert-only multi-writer interleavings: whatever the thread schedule,
// every reader observation must be a *join-closed* state — versions
// monotone per reader, observed key sets monotone per reader (no write
// ever retracted), and the final state exactly the union of all
// acknowledged writes.
proptest! {
    #![proptest_config(ProptestConfig::from_env_or(8))]

    #[test]
    fn interleaved_writers_never_show_torn_or_retracted_state(
        seed in 0u64..1000,
        writers in 2usize..5,
        per_writer in 5usize..20,
    ) {
        let db = Arc::new(ConcurrentDatabase::new());
        db.create_relation("r", scheme()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));

        let reader = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut last_keys: BTreeSet<i64> = BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let snap = db.snapshot();
                    let keys = observed_keys(&snap);
                    assert!(snap.version() >= last_version, "version went backwards");
                    assert!(
                        last_keys.is_subset(&keys),
                        "a previously-observed write was retracted"
                    );
                    last_version = snap.version();
                    last_keys = keys;
                }
            })
        };

        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        // Disjoint key ranges per writer; the seed varies
                        // the arrival pattern a little via spin yields.
                        let k = (w as i64) * 10_000 + i as i64;
                        if (seed + i as u64).is_multiple_of(3) {
                            std::thread::yield_now();
                        }
                        db.insert("r", tup(k)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();

        let expected: BTreeSet<i64> = (0..writers)
            .flat_map(|w| (0..per_writer).map(move |i| (w as i64) * 10_000 + i as i64))
            .collect();
        prop_assert_eq!(observed_keys(&db.snapshot()), expected);
        let stats = db.stats();
        prop_assert_eq!(stats.ops, (writers * per_writer) as u64 + 1);
    }
}

/// Racing readers hold pre-repartition snapshots while the writer splits
/// a hot partition (halving the span): every reader observation must stay
/// prefix-consistent, and a frozen snapshot's partition map must keep
/// answering pruning queries with positions valid against that snapshot's
/// own tuple vector — repartitioning is copy-on-write, never in-place.
#[test]
fn readers_keep_frozen_partition_maps_across_a_repartition() {
    use hrdm_storage::PartitionPolicy;
    const N: i64 = 400;
    let db = Arc::new(ConcurrentDatabase::new());
    db.set_partition_policy(PartitionPolicy::SpanLog2(8)); // span 256: hot
    db.create_relation("r", scheme()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_len = 0usize;
                let mut checks = 0u64;
                // Check, then look at the flag (see above).
                loop {
                    let snap = db.snapshot();
                    let keys = observed_keys(&snap);
                    let len = keys.len();
                    assert_eq!(
                        keys,
                        (0..len as i64).collect::<BTreeSet<i64>>(),
                        "snapshot is not a contiguous prefix"
                    );
                    assert!(len >= last_len, "observed state went backwards");
                    last_len = len;

                    // The snapshot's frozen partition map: its position
                    // count matches the snapshot's relation exactly, and
                    // its pruned candidates agree with a linear scan of
                    // the same snapshot — whatever the live policy is by
                    // now.
                    let r = snap.relation("r").unwrap();
                    let parts = snap.partitions("r").unwrap();
                    assert_eq!(parts.tuple_count(), r.len(), "stale map published");
                    let w = Lifespan::interval(100, 400);
                    let expect: Vec<usize> = r
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.lifespan().intersects(&w))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(parts.prune_positions(&w), expect, "frozen map diverged");
                    checks += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                checks
            })
        })
        .collect();

    for k in 0..N {
        db.insert("r", tup(k)).unwrap();
        if k == N / 2 {
            // Split the hot partitions: span 256 → 32 while readers race.
            db.set_partition_policy(PartitionPolicy::SpanLog2(5));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(checks > 0, "readers never observed anything");

    // A snapshot taken before a *further* repartition keeps its map while
    // the live database's map changes shape under it.
    let before = db.snapshot();
    let shape_before = before.partitions("r").unwrap().partition_count();
    db.set_partition_policy(PartitionPolicy::SpanLog2(2));
    assert_eq!(
        before.partitions("r").unwrap().partition_count(),
        shape_before,
        "repartition mutated a published snapshot's map"
    );
    assert!(
        db.snapshot().partitions("r").unwrap().partition_count() > shape_before,
        "splitting the span must grow the live partition count"
    );
}

/// Recovery after concurrent group-committed writers equals the in-memory
/// state at shutdown: the batched WAL frames replay to exactly the set of
/// acknowledged writes (the crash-safety invariant of PR 2, preserved by
/// the group-commit writer).
#[test]
fn group_committed_writes_recover_exactly() {
    let dir = tmp("group-recovery");
    {
        let db = Arc::new(ConcurrentDatabase::open(&dir).unwrap());
        db.create_relation("r", scheme()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..30i64 {
                        db.insert("r", tup(w * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Dropped without a checkpoint: recovery replays the batched WAL.
    }
    let back = Database::open(&dir).unwrap();
    let expected: BTreeSet<i64> = (0..4)
        .flat_map(|w| (0..30).map(move |i| w * 1000 + i))
        .collect();
    let got: BTreeSet<i64> = back
        .relation("r")
        .unwrap()
        .iter()
        .map(|t| match t.key_values(&scheme()).unwrap()[0] {
            Value::Int(k) => k,
            ref other => panic!("non-int key {other:?}"),
        })
        .collect();
    assert_eq!(got, expected);
    std::fs::remove_dir_all(&dir).ok();
}

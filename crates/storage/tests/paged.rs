//! Out-of-core acceptance tests: a [`PagedDatabase`] must materialize
//! byte-identical relations to the eager loader while reading through a
//! bounded buffer pool, and a windowed open must *provably* never touch
//! partitions whose summaries exclude the window.

use hrdm_core::prelude::*;
use hrdm_storage::{
    BufferPool, Database, DbError, PagedDatabase, PartitionPolicy, WalRecord, PAGE_SIZE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hrdm-paged-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

const T_MAX: i64 = 1 << 20;

fn scheme() -> Scheme {
    Scheme::builder()
        .key_attr("K", ValueKind::Int, Lifespan::interval(0, T_MAX))
        .attr("V", HistoricalDomain::int(), Lifespan::interval(0, T_MAX))
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

/// A checkpointed database with `n` tuples spread over many 4096-chronon
/// partitions: tuple `k` lives in `[k·37 mod T, +25]`.
fn seed_db(dir: &std::path::Path, n: i64) {
    seed_db_born(dir, n, |k| (k * 37) % (T_MAX - 30));
}

/// [`seed_db`] with tuple `k` living in `[birth(k), +25]`.
fn seed_db_born(dir: &std::path::Path, n: i64, birth: impl Fn(i64) -> i64) {
    let mut db = Database::open(dir).unwrap();
    db.set_partition_policy(PartitionPolicy::SpanLog2(12));
    db.create_relation("emp", scheme()).unwrap();
    let ops: Vec<WalRecord> = (0..n)
        .map(|k| {
            let lo = birth(k);
            WalRecord::Insert {
                relation: "emp".into(),
                tuple: tup(k, lo, lo + 25),
            }
        })
        .collect();
    for r in db.commit_batch(ops) {
        r.unwrap();
    }
    db.checkpoint().unwrap();
}

#[test]
fn full_snapshot_matches_eager_load() {
    let dir = tmp("full");
    seed_db(&dir, 300);
    let eager = Database::load(&dir).unwrap();
    let paged = PagedDatabase::open(&dir).unwrap();
    let snap = paged.snapshot().unwrap();
    assert_eq!(
        snap.relation("emp").unwrap(),
        eager.relation("emp").unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Same tuples in the same order. The second input inserts births that
/// alternate between the partitions either side of chronon 4096, where
/// insertion order and the loader's partition-major order differ.
#[test]
fn windowed_snapshot_matches_filtered_eager_load() {
    let monotone = tmp("windowed");
    seed_db(&monotone, 300);
    let interleaved = tmp("windowed-interleaved");
    seed_db_born(&interleaved, 60, |k| {
        if k % 2 == 0 {
            4_096 - 40 + k
        } else {
            4_096 + k
        }
    });
    let inputs = [
        (
            &monotone,
            &[(0, 100), (5_000, 9_000), (T_MAX - 200, T_MAX), (7, 7)][..],
        ),
        (&interleaved, &[(4_000, 4_200), (4_090, 4_100)]),
    ];
    for (dir, windows) in inputs {
        let eager = Database::load(dir).unwrap();
        let paged = PagedDatabase::open(dir).unwrap();
        for &(lo, hi) in windows {
            let w = Lifespan::interval(lo, hi);
            let snap = paged.window_snapshot(Some(&w)).unwrap();
            let want: Vec<Tuple> = eager
                .relation("emp")
                .unwrap()
                .iter()
                .filter(|t| t.lifespan().intersects(&w))
                .cloned()
                .collect();
            let got: Vec<Tuple> = snap.relation("emp").unwrap().iter().cloned().collect();
            assert_eq!(got, want, "{} window [{lo}, {hi}]", dir.display());
        }
    }
    std::fs::remove_dir_all(&monotone).ok();
    std::fs::remove_dir_all(&interleaved).ok();
}

/// What a window costs: every record of an opened partition is probed,
/// and only the records the window keeps are decoded.
#[test]
fn a_window_decodes_only_the_records_it_keeps() {
    let dir = tmp("waste");
    seed_db(&dir, 2_000);
    let paged = PagedDatabase::open(&dir).unwrap();
    let w = Lifespan::interval(10_000, 10_100);
    let snap = paged.window_snapshot(Some(&w)).unwrap();
    let rows = snap.relation("emp").unwrap().len() as u64;
    assert!(rows > 0);
    let map = paged.partition_map("emp").unwrap();
    let members: usize = paged
        .opened_partitions("emp")
        .iter()
        .map(|&id| map.partition(id).unwrap().len())
        .sum();
    assert_eq!(paged.records_decoded("emp"), rows);
    assert_eq!(paged.records_scanned("emp"), members as u64);
    assert!(members as u64 > rows, "the probe skipped nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pages a window cannot meet are skipped: one 4096-chronon partition of
/// ≥ 20 heap pages, inserted with births out of order, is written in birth
/// order, so after a first (full) pass builds its zone map each narrow
/// window probes only the few pages whose births it can reach — and
/// answers exactly what the eager loader filtered by the window does.
#[test]
fn a_warm_window_skips_the_pages_it_cannot_meet() {
    let dir = tmp("zones");
    let n = 6_400;
    // 1 999 is prime to 4 070: births jump about the partition.
    seed_db_born(&dir, n, |k| (k * 1_999) % 4_070);
    let heap_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".p0.heap"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    let pages = heap_bytes / PAGE_SIZE as u64;
    assert!(pages >= 20, "partition 0 spans only {pages} page(s)");

    let eager = Database::load(&dir).unwrap();
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(4)).unwrap();
    assert_eq!(paged.partition_map("emp").unwrap().partition_count(), 1);
    paged
        .window_snapshot(Some(&Lifespan::interval(2_000, 2_050)))
        .unwrap();
    for w in [
        Lifespan::interval(0, 0),
        Lifespan::interval(500, 550),
        Lifespan::interval(2_000, 2_050),
        Lifespan::of(&[(1_000, 1_005), (3_000, 3_005)]),
        Lifespan::interval(4_050, 4_200),
    ] {
        let before = paged.records_scanned("emp");
        let snap = paged.window_snapshot(Some(&w)).unwrap();
        let probed = paged.records_scanned("emp") - before;
        let want: Vec<Tuple> = eager
            .relation("emp")
            .unwrap()
            .iter()
            .filter(|t| t.lifespan().intersects(&w))
            .cloned()
            .collect();
        let got: Vec<Tuple> = snap.relation("emp").unwrap().iter().cloned().collect();
        assert!(!want.is_empty(), "{w} keeps nothing");
        assert_eq!(got, want, "window {w}");
        assert!(
            probed * 4 < n as u64,
            "window {w} probed {probed} of {n} records"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole witness: a narrow window opens only the partitions its
/// chronons can live in; every other partition's heap stays cold — not
/// merely unread, never even *opened* — and the pool faults stay bounded
/// by the opened partitions' sizes.
#[test]
fn narrow_window_leaves_cold_partitions_untouched() {
    let dir = tmp("cold");
    seed_db(&dir, 2_000);
    let pool = BufferPool::new(8);
    let paged = PagedDatabase::open_with_pool(&dir, Arc::clone(&pool)).unwrap();
    let total_parts = paged.partition_map("emp").unwrap().iter().count();
    assert!(total_parts > 10, "need many partitions, got {total_parts}");

    let w = Lifespan::interval(0, 4_000); // ≈ one 4096-chronon partition
    let before = pool.stats();
    let snap = paged.window_snapshot(Some(&w)).unwrap();
    let after = pool.stats();

    assert!(!snap.relation("emp").unwrap().is_empty());
    let opened = paged.opened_partitions("emp");
    assert!(
        opened.len() <= 2,
        "a 4000-chronon window must open ≤ 2 span-4096 partitions, opened {opened:?}"
    );
    // Faults are bounded by the opened heaps — far below the
    // whole relation (2000 tuples ≫ 8-frame pool; a full scan would
    // fault hundreds of pages through this pool).
    let faulted = after.misses - before.misses;
    assert!(
        faulted <= 16,
        "narrow window faulted {faulted} pages; cold partitions were read"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_tail_inserts_are_visible() {
    let dir = tmp("tail");
    seed_db(&dir, 100);
    {
        let mut db = Database::open(&dir).unwrap();
        for k in 100..140 {
            let lo = (k * 37) % (T_MAX - 30);
            db.insert("emp", tup(k, lo, lo + 25)).unwrap();
        }
        // No checkpoint: the last 40 tuples live only in the WAL tail.
    }
    let eager = Database::load(&dir).unwrap();
    let paged = PagedDatabase::open(&dir).unwrap();
    assert_eq!(paged.tuple_count("emp"), Some(140));
    let snap = paged.snapshot().unwrap();
    assert_eq!(
        snap.relation("emp").unwrap(),
        eager.relation("emp").unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tail_created_relation_is_visible() {
    let dir = tmp("tail-create");
    seed_db(&dir, 50);
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("dept", scheme()).unwrap();
        db.insert("dept", tup(1, 10, 40)).unwrap();
    }
    let paged = PagedDatabase::open(&dir).unwrap();
    assert_eq!(paged.tuple_count("dept"), Some(1));
    // A tail-created relation has no on-disk tree, and the open makes
    // none up in the temp directory either.
    let scratch = std::env::temp_dir().join(format!("hrdm-empty-{}.btx", std::process::id()));
    assert!(!scratch.exists(), "{} leaked", scratch.display());
    let snap = paged.snapshot().unwrap();
    assert_eq!(snap.relation("dept").unwrap().len(), 1);
    // Windowing applies to the tail too.
    let w = Lifespan::interval(500, 600);
    let snap = paged.window_snapshot(Some(&w)).unwrap();
    assert!(snap.relation("dept").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_without_checkpoint_is_a_mode_error() {
    let dir = tmp("no-checkpoint");
    {
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", scheme()).unwrap();
        db.insert("emp", tup(1, 0, 10)).unwrap();
        // Dropped without checkpoint: WAL only, no catalog.
    }
    match PagedDatabase::open(&dir) {
        Err(DbError::Mode(msg)) => assert!(msg.contains("checkpoint"), "{msg}"),
        other => panic!("expected Mode error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heavy_wal_tail_is_a_mode_error() {
    let dir = tmp("heavy-tail");
    seed_db(&dir, 20);
    {
        let mut db = Database::open(&dir).unwrap();
        db.put_relation("emp", {
            let mut r = Relation::new(scheme());
            r.insert(tup(1, 0, 10)).unwrap();
            r
        })
        .unwrap();
        // Dropped without checkpoint: the tail holds a PutRelation.
    }
    match PagedDatabase::open(&dir) {
        Err(DbError::Mode(msg)) => assert!(msg.contains("checkpoint"), "{msg}"),
        other => panic!("expected Mode error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Correctness is pool-size independent: a pool far smaller than the
/// data (forcing eviction mid-materialization) yields the same bytes.
#[test]
fn tiny_pool_forces_eviction_without_corruption() {
    let dir = tmp("tiny-pool");
    seed_db(&dir, 1_500);
    let eager = Database::load(&dir).unwrap();
    let pool = BufferPool::new(2);
    let paged = PagedDatabase::open_with_pool(&dir, Arc::clone(&pool)).unwrap();
    let snap = paged.snapshot().unwrap();
    assert_eq!(
        snap.relation("emp").unwrap(),
        eager.relation("emp").unwrap()
    );
    assert!(
        pool.stats().evictions > 0,
        "a 2-frame pool must evict while materializing 1500 tuples"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Scaled-down acceptance run (the 10M-tuple version is `#[ignore]`d
/// below): 200k tuples under a pool capped well below the relation's
/// footprint, windowed open, zero cold faults.
#[test]
fn acceptance_200k_windowed_under_small_pool() {
    let dir = tmp("acc-200k");
    let n: i64 = 200_000;
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(12));
        db.create_relation("emp", scheme()).unwrap();
        // Batches keep the WAL fsync count (and test runtime) sane.
        for chunk in 0..(n / 10_000) {
            let ops: Vec<WalRecord> = (chunk * 10_000..(chunk + 1) * 10_000)
                .map(|k| {
                    let lo = (k * 37) % (T_MAX - 30);
                    WalRecord::Insert {
                        relation: "emp".into(),
                        tuple: tup(k, lo, lo + 25),
                    }
                })
                .collect();
            for r in db.commit_batch(ops) {
                r.unwrap();
            }
        }
        db.checkpoint().unwrap();
    }

    let pool = BufferPool::new(64); // 512 KiB of 8 KiB frames
    let paged = PagedDatabase::open_with_pool(&dir, Arc::clone(&pool)).unwrap();
    assert_eq!(paged.tuple_count("emp"), Some(n as usize));

    let w = Lifespan::interval(8_192, 12_000); // within one partition
    let before = pool.stats();
    let snap = paged.window_snapshot(Some(&w)).unwrap();
    let after = pool.stats();

    let rel = snap.relation("emp").unwrap();
    assert!(!rel.is_empty());
    for t in rel.iter() {
        assert!(t.lifespan().intersects(&w));
    }
    let opened = paged.opened_partitions("emp");
    let total = paged.partition_map("emp").unwrap().iter().count();
    assert!(
        opened.len() * 8 < total,
        "opened {} of {total} partitions for a one-partition window",
        opened.len()
    );
    // Fault budget: the opened partitions' heap pages.
    // 200k tuples ≈ 780+ heap pages total; a window over 1/256th of the
    // chronon domain must fault a small fraction of that.
    let faulted = (after.misses - before.misses) as usize;
    let total_heap_pages = n as usize / 10; // ~80 B/record ⇒ ~100/page
    assert!(
        faulted * 8 < total_heap_pages,
        "windowed open faulted {faulted} pages of ~{total_heap_pages}"
    );
    assert!(
        after.resident <= 64,
        "resident {} frames exceeds the 64-frame cap",
        after.resident
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full-scale acceptance criterion: a 10M-tuple relation queryable
/// with partition pruning under a 256 MiB pool cap. Run explicitly:
/// `cargo test -p hrdm-storage --test paged --release -- --ignored`.
#[test]
#[ignore = "multi-GiB, minutes-long; run explicitly in release mode"]
fn acceptance_10m_windowed_under_256mib_pool() {
    let dir = tmp("acc-10m");
    let n: i64 = 10_000_000;
    {
        let mut db = Database::open(&dir).unwrap();
        db.set_partition_policy(PartitionPolicy::SpanLog2(12));
        db.create_relation("emp", scheme()).unwrap();
        for chunk in 0..(n / 50_000) {
            let ops: Vec<WalRecord> = (chunk * 50_000..(chunk + 1) * 50_000)
                .map(|k| {
                    let lo = (k * 37) % (T_MAX - 30);
                    WalRecord::Insert {
                        relation: "emp".into(),
                        tuple: tup(k, lo, lo + 25),
                    }
                })
                .collect();
            for r in db.commit_batch(ops) {
                r.unwrap();
            }
        }
        db.checkpoint().unwrap();
    }

    let cap = (256 << 20) / PAGE_SIZE; // the default 256 MiB budget
    let pool = BufferPool::new(cap);
    let paged = PagedDatabase::open_with_pool(&dir, Arc::clone(&pool)).unwrap();
    let w = Lifespan::interval(8_192, 12_287);
    let snap = paged.window_snapshot(Some(&w)).unwrap();
    let rel = snap.relation("emp").unwrap();
    assert!(!rel.is_empty());
    for t in rel.iter() {
        assert!(t.lifespan().intersects(&w));
    }
    let after = pool.stats();
    assert!(after.resident <= cap);
    let opened = paged.opened_partitions("emp");
    let total = paged.partition_map("emp").unwrap().iter().count();
    assert!(opened.len() * 16 < total);
    std::fs::remove_dir_all(&dir).ok();
}

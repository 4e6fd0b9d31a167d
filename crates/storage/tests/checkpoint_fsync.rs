//! A checkpoint syncs its directory twice — once for every file name of the
//! new epoch, once for the catalog rename that commits it — however many
//! partitions it rewrote. Kept in a test binary of its own: the counter is
//! process-wide, and no other test may checkpoint while it is read.

use hrdm_core::prelude::*;
use hrdm_storage::{Database, PartitionPolicy};

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 1 << 12);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tup(k: i64, lo: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + 3);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

fn dir_fsyncs() -> u64 {
    hrdm_obs::global()
        .counter_value("hrdm_storage_dir_fsync_total")
        .unwrap_or(0)
}

#[test]
fn a_checkpoint_with_16_dirty_partitions_syncs_its_directory_twice() {
    let dir = std::env::temp_dir().join(format!("hrdm-ckpt-fsync-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Database::open(&dir).unwrap();
    db.set_partition_policy(PartitionPolicy::SpanLog2(4)); // span 16
    db.create_relation("r", scheme()).unwrap();
    // One tuple per 16-chronon range: 16 partitions, all new.
    for p in 0..16i64 {
        db.insert("r", tup(p, p * 16)).unwrap();
    }
    assert_eq!(db.partitions("r").unwrap().partition_count(), 16);
    let before = dir_fsyncs();
    db.checkpoint().unwrap();
    assert_eq!(dir_fsyncs() - before, 2, "first checkpoint, 16 new heaps");

    // Dirty every partition again; the count does not scale with them.
    for p in 0..16i64 {
        db.insert("r", tup(100 + p, p * 16 + 4)).unwrap();
    }
    let before = dir_fsyncs();
    db.checkpoint().unwrap();
    assert_eq!(dir_fsyncs() - before, 2, "16 dirty partitions rewritten");

    // … nor does a checkpoint that rewrites nothing skip the commit sync.
    let before = dir_fsyncs();
    db.checkpoint().unwrap();
    assert_eq!(dir_fsyncs() - before, 2, "all 16 partitions hard-linked");

    drop(db);
    let back = Database::open(&dir).unwrap();
    assert_eq!(back.relation("r").unwrap().len(), 32);
    std::fs::remove_dir_all(&dir).ok();
}

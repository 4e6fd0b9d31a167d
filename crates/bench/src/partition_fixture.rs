//! The shared workload fixture of the partitioned `bench-json` entries and
//! the `obs-overhead` gate: one scheme, one tuple generator, one populate
//! routine, so the two can never silently measure different datasets.

use hrdm_core::prelude::*;
use hrdm_storage::{ConcurrentDatabase, Database, PartitionPolicy};

/// Era exponent: chronons span `[0, 2^20]`.
pub const ERA_LOG2: u32 = 20;
/// Partition-span exponent: `2^20 / 2^14 = 64` partitions over the era.
pub const SPAN_LOG2: u32 = 14;

/// The fixture's relation scheme (`K: Int` key, `V: Int`).
pub fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 1 << ERA_LOG2);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

/// A tuple whose birth is spread pseudo-uniformly over the era by
/// multiplicative jitter, living for 50 chronons.
pub fn tup(k: i64) -> Tuple {
    let lo = (k.wrapping_mul(10_487)).rem_euclid((1 << ERA_LOG2) - 64);
    let life = Lifespan::interval(lo, lo + 50);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

/// A populated engine under `policy` with keys `0..n`.
///
/// Populates a **detached** `Database` (unshared → in-place index and
/// partition-map maintenance), then wraps it: driving `n` inserts through
/// `ConcurrentDatabase` would publish a snapshot per op, `n` times.
pub fn populated(policy: PartitionPolicy, n: i64) -> ConcurrentDatabase {
    let mut db = Database::new();
    db.set_partition_policy(policy);
    db.create_relation("r", scheme()).unwrap();
    for k in 0..n {
        db.insert("r", tup(k)).unwrap();
    }
    ConcurrentDatabase::from_database(db)
}

//! Allocation pin for the cold read path. A windowed scan of a saved
//! relation decodes each hit straight into its restricted tuple: the
//! tuple's `Arc`, its values slice and one slice per function, nothing
//! else.
//!
//! A counting global allocator makes this its own test binary; it holds
//! one test, so no other test thread allocates while it counts.

use hrdm_core::prelude::*;
use hrdm_storage::{BufferPool, Database, PagedDatabase, PartitionPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 100_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era.clone())
        .attr("W", HistoricalDomain::time(), era)
        .build()
        .unwrap()
}

/// `n` tuples `r(K*, V, W)`, tuple `k` alive over `[10k, 10k + 199]` with
/// five segments each for `V` and `W`.
fn relation(n: i64) -> Relation {
    let tuples = (0..n).map(|k| {
        let lo = 10 * k;
        let life = Lifespan::interval(lo, lo + 199);
        let v: Vec<(i64, i64, Value)> = (0..5)
            .map(|i| (lo + i * 40, lo + i * 40 + 39, Value::Int(k + i)))
            .collect();
        let w: Vec<(i64, i64, Value)> = (0..5)
            .map(|i| (lo + i * 40, lo + i * 40 + 39, Value::time(lo + i * 40)))
            .collect();
        Tuple::builder(life)
            .constant("K", k)
            .value("V", TemporalValue::of(&v))
            .value("W", TemporalValue::of(&w))
            .finish(&scheme())
            .unwrap()
    });
    Relation::with_tuples(scheme(), tuples).unwrap()
}

/// Allocations of one windowed read of every cold partition of `r` in
/// `db`, into `out` (already large enough), and the records decoded.
fn cold_window(db: &PagedDatabase, window: &Lifespan, out: &mut Vec<Tuple>) -> (u64, u64) {
    let ids = db.partition_map("r").unwrap().cold_ids(Some(window));
    let before = allocations();
    let mut decoded = 0;
    for &id in &ids {
        decoded += db
            .read_cold("r", id, Some(window), Some(window), out)
            .unwrap()
            .decoded;
    }
    (allocations() - before, decoded)
}

#[test]
fn cold_hits_allocate_only_the_tuples_they_build() {
    let dir = std::env::temp_dir().join(format!("hrdm-alloc-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let saved =
        Database::with_relations(PartitionPolicy::SpanLog2(10), [("r", relation(2_000))]).unwrap();
    saved.save(&dir).unwrap();
    let db = PagedDatabase::open_with_pool(&dir, BufferPool::new(4_096)).unwrap();

    // Every tuple the window meets is partly outside it: each hit is
    // built clipped, three functions each.
    let window = Lifespan::interval(5_000, 6_000);
    let mut out = Vec::with_capacity(4_096);
    cold_window(&db, &window, &mut out); // fault the pages, set the zone maps
    out.clear();
    let (allocs, decoded) = cold_window(&db, &window, &mut out);
    eprintln!(
        "cold window: {allocs} allocations for {decoded} decoded hits ({:.2} per hit)",
        allocs as f64 / decoded as f64
    );
    assert!(decoded >= 100, "the window decoded {decoded} records");
    assert!(
        allocs <= 5 * decoded,
        "{allocs} allocations for {decoded} hits: more than the tuple's Arc, \
         its values slice and one slice per function"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

//! Allocation pin for the served read path: streaming a 50-chronon
//! TIMESLICE and encoding its rows into a `RowChunk` buffer allocates per
//! batch, not per row. Every tuple is only partly covered by the window,
//! so each row is a clipped view that the encoder writes as `τ_clip(t)`;
//! building the restricted tuples instead costs an `Arc`, a values slice
//! and a segment slice per attribute for every row.
//!
//! A counting global allocator makes this its own test binary; it holds
//! one test, so no other test thread allocates while it counts.

use hrdm_core::prelude::*;
use hrdm_net::encode_row_chunk_into;
use hrdm_query::{stream_query_on_snapshot, ExecOptions, StreamedQuery};
use hrdm_storage::{Database, PartitionPolicy};
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

const BATCH_ROWS: usize = 256;

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 10_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era.clone())
        .attr("W", HistoricalDomain::time(), era)
        .build()
        .unwrap()
}

/// `n` tuples alive over `[0, 199]`, five segments each for `V` and `W`:
/// the window `[50..99]` covers part of every one.
fn source(n: i64) -> Database {
    let life = Lifespan::interval(0, 199);
    let tuples = (0..n).map(|k| {
        let v: Vec<(i64, i64, Value)> = (0..5)
            .map(|i| (i * 40, i * 40 + 39, Value::Int(k + i)))
            .collect();
        let w: Vec<(i64, i64, Value)> = (0..5)
            .map(|i| (i * 40, i * 40 + 39, Value::time(i * 40)))
            .collect();
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::of(&v))
            .value("W", TemporalValue::of(&w))
            .finish(&scheme())
            .unwrap()
    });
    let r = Relation::with_tuples(scheme(), tuples).unwrap();
    Database::with_relations(PartitionPolicy::Unpartitioned, [("r", r)]).unwrap()
}

/// Allocations made streaming the slice over `db` and encoding every batch
/// into `out` (already large enough: a session's buffer is reused), plus
/// the rows and batches streamed.
fn serve_slice(db: &Database, out: &mut Vec<u8>) -> (u64, u64, u64) {
    let opts = ExecOptions {
        batch_rows: BATCH_ROWS,
        ..ExecOptions::default()
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let Ok(StreamedQuery::Rows(mut stream)) =
        stream_query_on_snapshot("TIMESLICE [50..99] (r)", db, &opts)
    else {
        panic!("a relation-sorted query streams rows");
    };
    let (mut rows, mut batches) = (0, 0);
    while let Some(batch) = stream.next_batch().unwrap() {
        rows += batch.len() as u64;
        batches += 1;
        encode_row_chunk_into(out, 1, 0, batch.rows());
    }
    drop(stream);
    (ALLOCATIONS.load(Ordering::SeqCst) - before, rows, batches)
}

#[test]
fn serving_a_slice_allocates_per_batch_not_per_row() {
    let mut out = Vec::with_capacity(4 << 20);
    let mut measured = Vec::new();
    for n in [100, 2_000] {
        let db = source(n);
        out.clear();
        serve_slice(&db, &mut out); // warm the planner's and layouts' lazies
        out.clear();
        let (allocs, rows, batches) = serve_slice(&db, &mut out);
        assert_eq!(rows, n as u64);
        eprintln!(
            "n = {n}: {allocs} allocations for {rows} rows in {batches} batches \
             ({:.3} per row)",
            allocs as f64 / rows as f64
        );
        measured.push((allocs, batches));
    }
    let [(small, small_batches), (large, large_batches)] = measured[..] else {
        unreachable!("two sizes measured");
    };
    // Per extra batch: the scan's and the slice's row vectors; the
    // candidate-position list grows once per doubling.
    let allowed = small + (large_batches - small_batches) * 4 + 16;
    assert!(
        large <= allowed,
        "{large} allocations for 2 000 rows against {small} for 100: more than \
         per-batch overhead ({allowed} allowed)"
    );
}

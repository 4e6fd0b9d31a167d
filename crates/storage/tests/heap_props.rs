//! Property test: a [`HeapFile`] driven through an arbitrary
//! insert/delete/sync/reopen schedule stays equivalent to a trivial
//! in-memory model — under a pool small enough that eviction and
//! re-faulting interleave with every operation.

use hrdm_storage::{BufferPool, HeapFile, SlotId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hrdm-heap-props-{}-{}.heap",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// One step of the schedule. Deletes address the model's `i % live`-th
/// surviving record so every generated index is meaningful.
#[derive(Clone, Debug)]
enum Op {
    /// Insert a record of the given length (patterned bytes).
    Insert(usize),
    /// Delete the `i`-th live record (mod the live count).
    Delete(usize),
    /// Flush dirty pages to disk.
    Sync,
    /// Sync, drop the handle, and reopen the file cold.
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Hand-rolled weights (the vendored proptest's `prop_oneof!` has no
    // weighted arms): 5 small inserts : 1 near-page-size insert (forces
    // fresh page allocations) : 3 deletes : 1 sync : 1 reopen.
    (0u8..11, any::<usize>()).prop_map(|(k, x)| match k {
        0..=4 => Op::Insert(1 + x % 599),
        5 => Op::Insert(7_000 + x % 1_180),
        6..=8 => Op::Delete(x),
        9 => Op::Sync,
        _ => Op::Reopen,
    })
}

/// Deterministic, length- and sequence-dependent record bytes, so two
/// records never collide by accident.
fn record(seq: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq.wrapping_mul(31).wrapping_add(i) % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(64))]

    #[test]
    fn heap_schedule_matches_in_memory_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let path = tmp();
        // 2 frames: every multi-page state forces eviction + re-fault.
        let pool = BufferPool::new(2);
        let mut heap = HeapFile::create_in(&path, Arc::clone(&pool)).unwrap();
        let mut model: BTreeMap<(u32, SlotId), Vec<u8>> = BTreeMap::new();

        for (seq, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(len) => {
                    let bytes = record(seq, len);
                    let id = heap.insert(&bytes).unwrap();
                    let prev = model.insert((id.page, id.slot), bytes);
                    prop_assert!(prev.is_none(), "RecordId reused while live");
                }
                Op::Delete(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let key = *model.keys().nth(i % model.len()).unwrap();
                    let id = hrdm_storage::RecordId { page: key.0, slot: key.1 };
                    prop_assert!(heap.delete(id).unwrap());
                    model.remove(&key);
                    // A second delete of the same id is a no-op.
                    prop_assert!(!heap.delete(id).unwrap());
                }
                Op::Sync => heap.sync().unwrap(),
                Op::Reopen => {
                    heap.sync().unwrap();
                    drop(heap);
                    heap = HeapFile::open_in(&path, Arc::clone(&pool)).unwrap();
                }
            }

            // Point reads agree with the model.
            for (&(page, slot), bytes) in &model {
                let id = hrdm_storage::RecordId { page, slot };
                prop_assert_eq!(heap.get(id).unwrap().as_deref(), Some(&bytes[..]));
            }
        }

        // Final full scan agrees with the model exactly (same ids, same
        // bytes, ascending order).
        let mut scanned = Vec::new();
        heap.scan(|id, rec| {
            scanned.push((id, rec.to_vec()));
            Ok::<_, std::io::Error>(())
        })
        .unwrap();
        prop_assert_eq!(scanned.len(), model.len());
        for ((id, rec), (&(page, slot), bytes)) in scanned.iter().zip(model.iter()) {
            prop_assert_eq!((id.page, id.slot), (page, slot));
            prop_assert_eq!(rec, bytes);
        }

        drop(heap);
        std::fs::remove_file(&path).ok();
    }
}

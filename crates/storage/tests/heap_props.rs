//! Property test: a heap written by [`PageWriter::push`] from an
//! arbitrary sequence of small and near-page-size records, then reopened
//! as a [`HeapFile`], reads back exactly what a trivial in-memory model
//! of the greedy page fill predicts — under a pool small enough that
//! eviction and re-faulting interleave with every page read.

use hrdm_storage::{BufferPool, HeapFile, PageWriter, PAGE_SIZE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Page header and slot-directory entry bytes (the page layout).
const HEADER: usize = 8;
const SLOT: usize = 4;

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

fn len_strategy() -> impl Strategy<Value = usize> {
    // Hand-rolled weights (the vendored proptest's `prop_oneof!` has no
    // weighted arms): 5 small records : 1 near-page-size record (forces
    // fresh pages).
    (0u8..6, any::<usize>()).prop_map(|(k, x)| match k {
        0..=4 => 1 + x % 599,
        _ => 7_000 + x % 1_180,
    })
}

/// Deterministic, length- and sequence-dependent record bytes, so two
/// records never collide by accident.
fn record(seq: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seq.wrapping_mul(31).wrapping_add(i) % 251) as u8)
        .collect()
}

/// The model: each record goes on the last page while it fits there
/// (its bytes plus one slot-directory entry), else on a fresh page.
fn model_pages(records: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
    let mut pages: Vec<(usize, Vec<Vec<u8>>)> = Vec::new();
    for r in records {
        match pages.last_mut() {
            Some((used, page)) if *used + r.len() + SLOT <= PAGE_SIZE - HEADER => {
                *used += r.len() + SLOT;
                page.push(r.clone());
            }
            _ => pages.push((r.len() + SLOT, vec![r.clone()])),
        }
    }
    pages.into_iter().map(|(_, page)| page).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(64))]

    #[test]
    fn heap_schedule_matches_in_memory_model(lens in prop::collection::vec(len_strategy(), 0..60)) {
        let path = tmp();
        let records: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(seq, &len)| record(seq, len)).collect();
        let mut writer = PageWriter::create(&path).unwrap();
        for r in &records {
            writer.push(r).unwrap();
        }
        writer.finish().unwrap();
        let model = model_pages(&records);
        prop_assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (model.len() * PAGE_SIZE) as u64
        );

        // 2 frames: every multi-page file forces eviction + re-fault.
        let pool = BufferPool::new(2);
        let heap = HeapFile::open_in(&path, Arc::clone(&pool)).unwrap();
        prop_assert_eq!(heap.page_count(), model.len());
        for (page_no, want) in model.iter().enumerate() {
            let mut got = Vec::new();
            heap.scan_page(page_no as u32, |rec| {
                got.push(rec.to_vec());
                Ok::<_, std::io::Error>(())
            })
            .unwrap();
            prop_assert_eq!(&got, want);
        }

        // A full scan of a reopened handle reads every record, in order.
        drop(heap);
        let heap = HeapFile::open_in(&path, pool).unwrap();
        let mut scanned = Vec::new();
        heap.scan(|rec| {
            scanned.push(rec.to_vec());
            Ok::<_, std::io::Error>(())
        })
        .unwrap();
        prop_assert_eq!(scanned, records);

        drop(heap);
        std::fs::remove_file(&path).ok();
    }
}

//! The paged (out-of-core) view against `eval.rs` (see `oracle/mod.rs`):
//! after generated histories, on a fixed dense state, and under literal
//! and computed windows.

mod common;
mod oracle;

use hrdm_query::{
    evaluate, explain_analyze_query_text, materialization_window, optimize, parse_query,
    run_query_on_paged,
};
use hrdm_query::{PagedQueryError, Query};
use hrdm_storage::{BufferPool, Database, PagedDatabase, PAGE_SIZE};
use hrdm_time::Lifespan;
use oracle::matrix::{canon, entry, failure, on, run_matrix, Opened};
use oracle::world::{seeded, tmp, State, World, BATTERY};
use std::sync::Arc;

/// The read-only paged view of the attached engine's directory. A `warm`
/// view first runs one full pass, which sets every cold partition's zone
/// map: every answer after it comes through the zone-filtered scan.
fn paged(w: &World, pool: Arc<BufferPool>, warm: bool) -> Opened<'_> {
    let db = PagedDatabase::open_with_pool(&w.dir, pool).unwrap();
    if warm {
        db.window_snapshot(None).unwrap();
    }
    on(State::Final, move |_, text| {
        match run_query_on_paged(text, &db) {
            Ok(r) => Some(Ok(r)),
            Err(PagedQueryError::Pipeline(e)) => Some(Err(failure(e))),
            Err(e) => panic!("paged `{text}`: {e}"),
        }
    })
}

/// The paged view of the attached engine's directory, under the global
/// pool, a 2-frame one, and warmed (zone maps set) answers as `eval.rs`
/// does after every generated history — checkpointed first where the WAL
/// tail holds more than a paged open takes. At least 32 histories × 19
/// queries per entry.
#[test]
fn paged_pipeline_is_observationally_identical() {
    run_matrix(
        1_000,
        &[
            entry("paged/global pool", |w| {
                paged(w, Arc::clone(BufferPool::global()), false)
            }),
            entry("paged/2-frame pool", |w| {
                paged(w, BufferPool::new(2), false)
            }),
            entry("paged/zoned", |w| {
                paged(w, Arc::clone(BufferPool::global()), true)
            }),
        ],
    );
}

/// `q` through the paged view equals `eval.rs` on the eager load.
fn assert_paged_agrees(eager: &Database, paged: &PagedDatabase, q: &str) {
    let want = canon(&evaluate(&parse_query(q).unwrap(), eager));
    let got = run_query_on_paged(q, paged).map_err(|e| match e {
        PagedQueryError::Pipeline(e) => failure(e),
        other => panic!("paged `{q}`: {other}"),
    });
    assert_eq!(canon(&got), want, "paged `{q}` diverged from eval.rs");
}

/// What the scans of `q` decode of `r`, against what materializing the
/// query's window decodes: a scan decodes the same records, whether or not
/// it clips them as it does.
fn assert_decodes_the_window(paged: &PagedDatabase, q: &str) {
    let Ok(Query::Relation(e)) = parse_query(q) else {
        panic!("{q} is relation-sorted")
    };
    let window = materialization_window(&optimize(&e).0).unwrap();
    let before = paged.records_decoded("r");
    paged.window_snapshot(Some(&window)).unwrap();
    let materialized = paged.records_decoded("r") - before;
    let before = paged.records_decoded("r");
    run_query_on_paged(q, paged).unwrap();
    let scanned = paged.records_decoded("r") - before;
    assert_eq!(scanned, materialized, "`{q}` decoded other records");
}

/// A fixed dense state with a WAL tail on its checkpoint answers the
/// battery, and slices above, below and on its scans, through the global
/// pool and a 2-frame one, cold and warmed (zone maps set), decoding the
/// records its window meets; a literal window opens fewer than half of
/// the partitions, and on the warm view skips pages of one it opens,
/// which `EXPLAIN ANALYZE` reports.
#[test]
fn paged_pipeline_battery_on_seeded_state() {
    let dir = tmp("seeded");
    seeded(&dir);
    let most_pages = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".heap"))
        .map(|e| e.metadata().unwrap().len() / PAGE_SIZE as u64)
        .max()
        .unwrap();
    assert!(most_pages >= 3, "no partition spans several pages");
    let eager = Database::load(&dir).unwrap();
    // A slice above a select, one below, and a two-run slice on the scan.
    let sliced = [
        "TIMESLICE [3..30] (SELECT-IF (V >= 1, FORALL) (r))",
        "SELECT-IF (V >= 1, FORALL, [4..12]) (TIMESLICE [0..30] (r))",
        "TIMESLICE [0..1, 20..25] (r)",
    ];
    for (pool, warm) in [
        (Arc::clone(BufferPool::global()), false),
        (BufferPool::new(2), false),
        (Arc::clone(BufferPool::global()), true),
        (BufferPool::new(2), true),
    ] {
        let paged = PagedDatabase::open_with_pool(&dir, pool).unwrap();
        if warm {
            paged.window_snapshot(None).unwrap();
        }
        for q in BATTERY.iter().map(|(_, q)| *q).chain(sliced) {
            assert_paged_agrees(&eager, &paged, q);
        }
        for q in sliced {
            assert_decodes_the_window(&paged, q);
        }
    }
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(8)).unwrap();
    assert_paged_agrees(&eager, &paged, "TIMESLICE [4..12] (r)");
    let opened = paged.opened_partitions("r").len();
    let total = paged.partition_map("r").unwrap().iter().count();
    assert!(opened * 2 < total, "opened {opened}/{total} partitions");

    paged.window_snapshot(None).unwrap();
    let window = Lifespan::interval(0, 20);
    let map = paged.partition_map("r").unwrap();
    let members: usize = map
        .overlapping_ids(&window)
        .into_iter()
        .map(|id| map.partition(id).unwrap().len())
        .sum();
    let before = paged.records_scanned("r");
    assert_paged_agrees(&eager, &paged, "TIMESLICE [0..20] (r)");
    let probed = paged.records_scanned("r") - before;
    assert!(
        (probed as usize) < members,
        "the warm window probed {probed} of its partitions' {members} records: no page skipped"
    );
    let decoded = paged.records_decoded("r");
    let analyzed = explain_analyze_query_text("TIMESLICE [0..20] (r)", &paged).unwrap();
    let decoded = paged.records_decoded("r") - decoded;
    let read = map.overlapping_ids(&window).len();
    let skipped = format!("(cold: partitions={read}, pages_skipped=");
    let counted = format!(", probed={probed}, decoded={decoded})");
    assert!(
        analyzed.contains(&skipped) && analyzed.contains(&counted),
        "{analyzed}"
    );
    assert!(!analyzed.contains("pages_skipped=0,"), "{analyzed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A computed (`WHEN`) window has no materialization window: the paged
/// view reads every partition rather than guess, and answers exactly.
#[test]
fn computed_windows_disable_pruning_not_correctness() {
    let dir = tmp("computed");
    seeded(&dir);
    let q = "TIMESLICE (WHEN (SELECT-WHEN (K = 7) (r))) (r)";
    let Ok(Query::Relation(e)) = parse_query(q) else {
        panic!("{q} is relation-sorted")
    };
    assert!(materialization_window(&optimize(&e).0).is_none());
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(8)).unwrap();
    assert_paged_agrees(&Database::load(&dir).unwrap(), &paged, q);
    let opened = paged.opened_partitions("r").len();
    let total = paged.partition_map("r").unwrap().iter().count();
    assert_eq!(opened, total, "a computed window pruned");
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold partition that fails to read — a page whose checksum no longer
/// matches — fails every query whose scan reads it with a storage error,
/// never a short answer; queries whose windows miss it still answer.
#[test]
fn a_corrupt_cold_partition_fails_the_query() {
    let dir = tmp("corrupt");
    seeded(&dir);
    let heap = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("r.") && name.ends_with(".p5.heap")
        })
        .unwrap();
    let mut bytes = std::fs::read(&heap).unwrap();
    bytes[PAGE_SIZE / 2] ^= 0xff;
    std::fs::write(&heap, &bytes).unwrap();
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(8)).unwrap();
    for q in ["TIMESLICE [20..23] (r)", "r", "COUNT V (r)"] {
        match run_query_on_paged(q, &paged) {
            Err(PagedQueryError::Storage(_)) => {}
            other => panic!("`{q}` over a corrupt partition: {other:?}"),
        }
    }
    assert!(run_query_on_paged("TIMESLICE [0..1] (r)", &paged).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

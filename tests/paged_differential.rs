//! The paged (out-of-core) view against `eval.rs` (see `oracle/mod.rs`):
//! after generated histories, on a fixed dense state, and under literal
//! and computed windows.

mod common;
mod oracle;

use hrdm_query::{evaluate, materialization_window, optimize, parse_query, run_query_on_paged};
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

/// A fixed dense state with a WAL tail on its checkpoint answers the
/// battery through the global pool, through a 2-frame one, and warmed
/// (zone maps set); a literal window opens fewer than half of the
/// partitions, and on the warm view skips pages of one it opens.
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
    for (pool, warm) in [
        (Arc::clone(BufferPool::global()), false),
        (BufferPool::new(2), false),
        (Arc::clone(BufferPool::global()), true),
    ] {
        let paged = PagedDatabase::open_with_pool(&dir, pool).unwrap();
        if warm {
            paged.window_snapshot(None).unwrap();
        }
        for (_, q) in BATTERY {
            assert_paged_agrees(&eager, &paged, q);
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

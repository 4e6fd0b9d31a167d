//! The paged (out-of-core) view against `eval.rs` (see `oracle/mod.rs`):
//! after generated histories, on a fixed dense state, and under literal
//! and computed windows.

mod common;
mod oracle;

use hrdm_query::{
    evaluate, explain_analyze_query_text, explain_query_text, materialization_window, optimize,
    parse_query, run_query_on_paged,
};
use hrdm_query::{IndexSource, PipelineError, Query};
use hrdm_storage::{BufferPool, Database, PagedDatabase, PAGE_SIZE};
use hrdm_time::Lifespan;
use oracle::matrix::{canon, entry, failure, on, run_matrix, Opened};
use oracle::world::{r_scheme, r_tup, seeded, tmp, State, World, BATTERY};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The read-only paged view of the attached engine's directory. A `warm`
/// view first runs one full pass, which sets every cold partition's zone
/// map: every answer after it comes through the zone-filtered scan.
fn paged(w: &World, pool: Arc<BufferPool>, warm: bool) -> Opened<'_> {
    let db = PagedDatabase::open_with_pool(&w.dir, pool).unwrap();
    if warm {
        db.window_snapshot(None).unwrap();
    }
    answers(db, None)
}

/// The matrix's answers through `db`, which reads `copy` when it is given:
/// the copy stays on disk while `db` answers.
fn answers<'w>(db: PagedDatabase, copy: Option<Checkpointed>) -> Opened<'w> {
    on(State::Final, move |_, text| {
        let _copy = &copy;
        match run_query_on_paged(text, &db) {
            Ok(r) => Some(Ok(r)),
            Err(PipelineError::Storage(e)) => panic!("paged `{text}`: storage error: {e}"),
            Err(e) => Some(Err(failure(e))),
        }
    })
}

/// A checkpointed copy of a directory, removed on drop.
struct Checkpointed(PathBuf);

impl Checkpointed {
    fn of(dir: &Path) -> Checkpointed {
        let copy = Checkpointed(tmp("checkpointed"));
        std::fs::create_dir_all(&copy.0).unwrap();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.0.join(path.file_name().unwrap())).unwrap();
        }
        Database::open(&copy.0).unwrap().checkpoint().unwrap();
        copy
    }
}

impl Drop for Checkpointed {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The paged view of a checkpointed copy of the attached engine's
/// directory: every relation of the history is cold, whatever its WAL
/// tail held.
fn checkpointed(w: &World) -> Opened<'_> {
    let copy = Checkpointed::of(&w.dir);
    let db = PagedDatabase::open_with_pool(&copy.0, BufferPool::new(2)).unwrap();
    answers(db, Some(copy))
}

/// The paged view of the attached engine's directory as the history left
/// it, under the global pool, a 2-frame one, and warmed (zone maps set),
/// and of a checkpointed copy, answers as `eval.rs` does after every
/// generated history. At least 32 histories × 19 queries per entry.
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
            entry("paged/checkpointed", checkpointed),
        ],
    );
}

/// `q` through the paged view equals `eval.rs` on the eager load.
fn assert_paged_agrees(eager: &Database, paged: &PagedDatabase, q: &str) {
    let want = canon(&evaluate(&parse_query(q).unwrap(), eager));
    let got = run_query_on_paged(q, paged).map_err(|e| match e {
        PipelineError::Storage(e) => panic!("paged `{q}`: storage error: {e}"),
        other => failure(other),
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
    let cold = PagedDatabase::open(&dir).unwrap();
    let parts = cold.partition_map("r").unwrap().iter();
    let most_pages = parts.map(|(_, p)| p.image().unwrap().pages).max();
    assert!(most_pages >= Some(3), "no partition spans several pages");
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

/// A key probe plans as `Database::load` plans it where the paged view
/// holds the relation resident: on a WAL-only directory it answers its own
/// key index, so `SELECT-WHEN (K = 7)` is an `IndexScan(key, K = 7)`. A
/// cold relation answers none, since its WAL tail's index cannot see the
/// cold rows: on a checkpointed copy with a tail, neither the probe nor a
/// join onto the relation runs over the tail's index alone. Every answer
/// is `eval.rs`'s.
#[test]
fn key_probes_use_an_index_only_where_it_sees_every_row() {
    let dir = tmp("keyed");
    let mut db = Database::open(&dir).unwrap();
    db.create_relation("r", r_scheme()).unwrap();
    db.create_relation("s", r_scheme()).unwrap();
    for k in 0..50 {
        db.insert("r", r_tup(k, k, 2 + k % 5, k % 4)).unwrap();
    }
    for k in 0..12 {
        db.insert("s", r_tup(k, 3 * k, 6, k % 3)).unwrap();
    }
    drop(db);
    let (probe, join) = ("SELECT-WHEN (K = 7) (r)", "s NATJOIN r");
    let eager = Database::load(&dir).unwrap();
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(8)).unwrap();
    for src in [&eager as &dyn IndexSource, &paged] {
        let plan = explain_query_text(probe, src).unwrap();
        assert!(plan.contains("IndexScan(key, K = 7)"), "{plan}");
    }
    assert_paged_agrees(&eager, &paged, probe);
    assert_paged_agrees(&eager, &paged, join);

    let copy = Checkpointed::of(&dir);
    let mut db = Database::open(&copy.0).unwrap();
    for k in 50..55 {
        db.insert("r", r_tup(k, k, 3, k % 4)).unwrap();
    }
    drop(db);
    let eager = Database::load(&copy.0).unwrap();
    let paged = PagedDatabase::open_with_pool(&copy.0, BufferPool::new(8)).unwrap();
    assert!(paged.partition_map("r").unwrap().has_cold());
    for q in [probe, join] {
        let plan = explain_query_text(q, &paged).unwrap();
        assert!(
            !plan.contains("IndexScan(key") && !plan.contains("(index nested loop)"),
            "`{q}` probes the tail's key index alone:\n{plan}"
        );
        assert_paged_agrees(&eager, &paged, q);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold partition that fails to read — a page whose checksum no longer
/// matches — fails every query whose scan reads it with a storage error,
/// never a short answer; queries whose windows miss it still answer.
#[test]
fn a_corrupt_cold_partition_fails_the_query() {
    let dir = tmp("corrupt");
    seeded(&dir);
    let cold = PagedDatabase::open(&dir).unwrap();
    let run = cold
        .partition_map("r")
        .unwrap()
        .partition(5)
        .unwrap()
        .image();
    let run = run.expect("a cold partition is a run");
    drop(cold);
    let heap = dir.join(format!("r.{}.heap", run.epoch));
    let mut bytes = std::fs::read(&heap).unwrap();
    bytes[run.first_page as usize * PAGE_SIZE + PAGE_SIZE / 2] ^= 0xff;
    std::fs::write(&heap, &bytes).unwrap();
    let paged = PagedDatabase::open_with_pool(&dir, BufferPool::new(8)).unwrap();
    for q in ["TIMESLICE [20..23] (r)", "r", "COUNT V (r)"] {
        match run_query_on_paged(q, &paged) {
            Err(PipelineError::Storage(_)) => {}
            other => panic!("`{q}` over a corrupt partition: {other:?}"),
        }
    }
    assert!(run_query_on_paged("TIMESLICE [0..1] (r)", &paged).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

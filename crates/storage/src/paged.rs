//! The out-of-core read path: a database whose relations stay on disk
//! until a query window asks for them.
//!
//! [`Database::load`] reassembles every relation in memory before the
//! first query, so capacity is capped at RAM. [`PagedDatabase::open`]
//! recovers `dir` through the same routine — the same checkpoint reader,
//! every intact WAL record replayed through the same applier that commits
//! writes — but reads in full only the relations its WAL tail replaces or
//! evolves (such a record re-derives every stored tuple), and all of a
//! never-checkpointed directory, which is all WAL. Every other relation
//! keeps its checkpoint image on disk as the **cold part** of its table:
//! the heaps opened so far and the scan counters, with only its WAL tail
//! resident ([`PagedDatabase::resident`]). Its one partition map is the
//! image's, all cold ([`PagedDatabase::partition_map`]): a tail tuple
//! enters no partition, and scans read the tail whole. It answers no key
//! index: the tail's cannot see the cold rows. The view holds any directory `load` holds,
//! fails where `load` fails, and is a read-only facade over one
//! [`DbSnapshot`] of those tables; writes stay with the attached
//! [`Database`] / `ConcurrentDatabase`.
//!
//! A query plan's scan reads each cold partition its window meets through
//! [`DbSnapshot::read_cold`]:
//!
//! 1. the persisted per-partition summaries prune partitions whose
//!    chronon range cannot intersect the window — those are never
//!    *opened* (the per-file fault counters of the buffer pool prove it);
//! 2. a surviving partition's heap is read through the buffer pool. Its
//!    first scan records each page's zone (the hull of its records'
//!    lifespans; a checkpoint writes heaps in birth order, so it is
//!    narrow), and later scans skip, unpinned, the pages whose zone misses
//!    the window. Each visited record's lifespan is probed in place, and
//!    only the hits are decoded ([`PagedDatabase::records_scanned`] /
//!    [`PagedDatabase::records_decoded`]);
//! 3. under a literal TIME-SLICE fused into the scan a hit is decoded
//!    straight into its restriction to the slice ([`crate::decode_record`]).
//!    Rows come partition by partition in ascending id, birth order within
//!    one, then the resident tuples: the order [`Database::load`] produces.
//!
//! [`PagedDatabase::window_snapshot`] materializes the tuples meeting one
//! window — *only* those — with the routine the eager open reads an image
//! in full with; queries do not run that way, the benchmark's traced
//! replay and the tests do.
//!
//! [`Database`]: crate::Database
//! [`Database::load`]: crate::Database::load

use crate::catalog::Catalog;
use crate::database::{no_database, recover, DbError, PartitionRead};
use crate::partition::PartitionMap;
use crate::pool::BufferPool;
use crate::snapshot::DbSnapshot;
use crate::table::ColdPart;
use crate::wal::WalRecord;
use hrdm_core::{Relation, Scheme, Tuple};
use hrdm_time::Lifespan;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A database opened out-of-core; see the [module docs](self).
pub struct PagedDatabase {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    view: DbSnapshot,
}

impl std::fmt::Debug for PagedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PagedDatabase({:?} @ {})", self.dir, self.epoch())
    }
}

impl PagedDatabase {
    /// Opens the database at `dir` against the process-global buffer
    /// pool; see the [module docs](self).
    pub fn open(dir: &Path) -> Result<PagedDatabase, DbError> {
        Self::open_with_pool(dir, Arc::clone(BufferPool::global()))
    }

    /// [`PagedDatabase::open`] with an explicit pool (tests use tiny
    /// pools to force eviction).
    pub fn open_with_pool(dir: &Path, pool: Arc<BufferPool>) -> Result<PagedDatabase, DbError> {
        let rederived = |records: &[WalRecord], name: &str| {
            records.iter().any(|r| r.rederived_relation() == Some(name))
        };
        let found = recover(dir, &pool, rederived)?.ok_or_else(|| no_database(dir))?;
        let view = DbSnapshot {
            epoch: Some(found.epoch),
            ..found.db.snapshot()
        };
        let dir = dir.to_path_buf();
        Ok(PagedDatabase { dir, pool, view })
    }

    /// The snapshot this view reads; its cold relations hold only their
    /// resident tuples, and partition maps over their checkpoint images.
    pub fn view(&self) -> &DbSnapshot {
        &self.view
    }

    /// The buffer pool this database reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The checkpoint epoch the view is reading.
    pub fn epoch(&self) -> u64 {
        self.view.epoch().unwrap_or(0)
    }

    /// The catalog (checkpoint + WAL tail).
    pub fn catalog(&self) -> &Catalog {
        self.view.catalog()
    }

    /// The registered relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.view.relation_names()
    }

    /// The scheme of `name`.
    pub fn scheme(&self, name: &str) -> Option<&Scheme> {
        self.view.catalog().scheme(name)
    }

    /// Total tuples of `name` (checkpoint image + WAL tail), known
    /// without touching a heap page.
    pub fn tuple_count(&self, name: &str) -> Option<usize> {
        self.view.tables.get(name).map(|t| t.tuple_count())
    }

    /// The partition map of `name`: the cold map over its checkpoint
    /// image when that stays on disk, the resident relation's otherwise.
    pub fn partition_map(&self, name: &str) -> Option<&PartitionMap> {
        self.view.partitions(name)
    }

    fn cold(&self, name: &str) -> Option<&ColdPart> {
        self.view.tables.get(name)?.cold.as_deref()
    }

    /// Ids of `name`'s partitions whose heap file has been opened (and
    /// thus possibly read) so far — the complement is provably cold.
    pub fn opened_partitions(&self, name: &str) -> Vec<i64> {
        self.cold(name).map_or_else(Vec::new, |c| {
            let heaps = c.heaps.lock().expect("cold heap cache lock");
            heaps.keys().copied().collect()
        })
    }

    /// Heap records of `name` this view's scans have visited so far (each
    /// a lifespan probe; records of pages skipped by zone are not).
    pub fn records_scanned(&self, name: &str) -> u64 {
        self.cold(name)
            .map_or(0, |c| c.records_scanned.load(Ordering::SeqCst))
    }

    /// Heap records of `name` this view's scans have decoded so far.
    pub fn records_decoded(&self, name: &str) -> u64 {
        self.cold(name)
            .map_or(0, |c| c.records_decoded.load(Ordering::SeqCst))
    }

    /// [`PagedDatabase::window_snapshot`] of every tuple: what
    /// [`crate::Database::load`] + snapshot holds, read through the pool.
    pub fn snapshot(&self) -> Result<DbSnapshot, DbError> {
        self.window_snapshot(None)
    }

    /// A resident [`DbSnapshot`] of exactly the tuples whose lifespan
    /// meets `window` (all when `None`); partitions whose summary misses
    /// it are never opened. See the [module docs](self).
    pub fn window_snapshot(&self, window: Option<&Lifespan>) -> Result<DbSnapshot, DbError> {
        self.view.materialize(window)
    }

    /// The resident tuples of `name`: the whole relation when it was read
    /// in full, else its WAL tail.
    pub fn resident(&self, name: &str) -> Option<&Relation> {
        self.view.relation(name)
    }

    /// [`DbSnapshot::read_cold`] of this view's snapshot.
    pub fn read_cold(
        &self,
        name: &str,
        id: i64,
        window: Option<&Lifespan>,
        clip: Option<&Lifespan>,
        out: &mut Vec<Tuple>,
    ) -> Result<PartitionRead, DbError> {
        self.view.read_cold(name, id, window, clip, out)
    }
}

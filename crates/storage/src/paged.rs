//! The out-of-core read path: a database whose relations stay on disk
//! until a query window asks for them.
//!
//! [`Database::load`](crate::Database::load) is eager — it reassembles
//! every relation in memory before the first query, so capacity is
//! capped at RAM. [`PagedDatabase::open`] reads **only the catalog**
//! (header + partition manifest, a few KiB) and the WAL tail, and leaves
//! every heap page on disk: a relation's checkpoint image is the **cold**
//! partitions of its [`PagedDatabase::partition_map`], and only the WAL
//! tail is resident ([`PagedDatabase::resident`]). A query plan's scan
//! then reads, with the lifespan window its plan bounds it to, each cold
//! partition through [`PagedDatabase::read_cold`]:
//!
//! 1. the persisted per-partition summaries prune partitions whose
//!    chronon range cannot intersect the window — those are never
//!    *opened*, let alone read (the per-file fault counters of the
//!    buffer pool prove it);
//! 2. each surviving partition's heap is read through the buffer pool,
//!    which caps resident memory at the pool budget regardless of
//!    relation size. A checkpoint writes a partition's heap in birth
//!    order, so each page holds a narrow birth range; the first scan of
//!    a heap visits every page and records each page's zone — the hull
//!    of its records' lifespans and its record count — and every later
//!    scan skips, without pinning, the pages whose zone misses the
//!    window. On the pages it visits, each record's lifespan — its first
//!    field — is tested against the window in place on the pinned page
//!    ([`crate::Decoder::lifespan_probe`]); only the records that meet
//!    it are decoded ([`PagedDatabase::records_scanned`] /
//!    [`PagedDatabase::records_decoded`] count both);
//! 3. a hit is decoded straight into the row the scan hands out: under a
//!    literal TIME-SLICE fused into the scan, into its restriction to the
//!    slice ([`crate::decode_record`]), built in one pass over the record.
//!    The scan streams the rows partition by partition in ascending id
//!    order, birth order within a partition, and then the WAL tail: the
//!    order [`Database::load`](crate::Database::load) produces. (A
//!    directory checkpointed before heaps were written in birth order
//!    holds them in insertion order: the same answers, in that heap
//!    order, with wider zones that skip fewer pages.)
//!
//! [`PagedDatabase::window_snapshot`] materializes the tuples meeting one
//! window as an ordinary [`DbSnapshot`]; queries do not run that way.
//! The benchmark's traced replay and the tests call it (with
//! `hrdm-query`'s `materialization_window`), until the benchmark is
//! re-pointed at the scan. A windowed snapshot contains *only* tuples
//! whose lifespan intersects the window. That is exactly the set a
//! lifespan-bounded query can observe, but callers passing hand-made
//! windows must respect the contract.
//!
//! Writes stay with the attached [`Database`](crate::Database) /
//! `ConcurrentDatabase`; a paged view does tolerate a WAL *tail* of
//! plain inserts and relation creations (held resident — the tail is
//! bounded by checkpoint cadence), and refuses anything heavier with a
//! `Mode` error naming the fix: checkpoint first.

use crate::catalog::Catalog;
use crate::database::{
    io_with_path, partition_heap_path, read_catalog_manifest, read_partition, wal_path, DbError,
    PartitionRead,
};
use crate::heap::HeapFile;
use crate::obs::storage_obs;
use crate::partition::{PartitionMap, PartitionPolicy};
use crate::pool::BufferPool;
use crate::snapshot::DbSnapshot;
use crate::table::{Table, Tables};
use crate::wal::{Wal, WalRecord};
use hrdm_core::{HrdmError, Relation, Scheme, Tuple};
use hrdm_time::Lifespan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One relation of a paged database: cold partition metadata plus the
/// resident WAL tail. Heap files open lazily, on first fault.
struct PagedRelation {
    scheme: Scheme,
    /// Cold partition map over the checkpoint manifest: pruning answers
    /// and per-partition record counts come from persisted summaries.
    map: PartitionMap,
    /// Tuples inserted after the checkpoint (the WAL tail): the resident
    /// part of the relation.
    tail: Relation,
    /// Partition heaps opened so far; absence here (plus a zero fault
    /// count) is the witness that a pruned partition was never touched.
    heaps: Mutex<BTreeMap<i64, Arc<HeapFile>>>,
    /// Heap records the scans visited (each a lifespan probe; records of
    /// skipped pages are not visited), and those of them decoded in full.
    records_scanned: AtomicU64,
    records_decoded: AtomicU64,
}

impl PagedRelation {
    fn new(scheme: Scheme, map: PartitionMap) -> PagedRelation {
        PagedRelation {
            tail: Relation::new(scheme.clone()),
            scheme,
            map,
            heaps: Mutex::new(BTreeMap::new()),
            records_scanned: AtomicU64::new(0),
            records_decoded: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for PagedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedDatabase")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("relations", &self.rels.len())
            .finish()
    }
}

/// A database opened out-of-core; see the [module docs](self).
pub struct PagedDatabase {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    catalog: Arc<Catalog>,
    policy: PartitionPolicy,
    epoch: u64,
    rels: BTreeMap<String, PagedRelation>,
}

impl PagedDatabase {
    /// Opens the database at `dir` against the process-global buffer
    /// pool. Reads the catalog and WAL tail only — no heap pages.
    pub fn open(dir: &Path) -> Result<PagedDatabase, DbError> {
        Self::open_with_pool(dir, Arc::clone(BufferPool::global()))
    }

    /// [`PagedDatabase::open`] with an explicit pool (tests use tiny
    /// pools to force eviction).
    pub fn open_with_pool(dir: &Path, pool: Arc<BufferPool>) -> Result<PagedDatabase, DbError> {
        let Some(manifest) = read_catalog_manifest(dir)? else {
            return Err(DbError::Mode(format!(
                "no checkpoint at {}: a paged open needs a catalog — checkpoint the database first",
                dir.display()
            )));
        };
        let mut catalog = manifest.catalog;
        let policy = manifest.policy;
        let epoch = manifest.epoch;

        let mut rels: BTreeMap<String, PagedRelation> = BTreeMap::new();
        let names: Vec<String> = catalog.relations().map(str::to_string).collect();
        for name in names {
            let Some(scheme) = catalog.scheme(&name).cloned() else {
                return Err(DbError::BadFile(format!(
                    "{}: catalog is inconsistent about relation `{name}`",
                    dir.display()
                )));
            };
            let Some(rows) = manifest.relations.get(&name) else {
                return Err(DbError::BadFile(format!(
                    "{}: relation `{name}` missing from the partition manifest",
                    dir.display()
                )));
            };
            let map = PartitionMap::from_manifest(policy, rows);
            rels.insert(name, PagedRelation::new(scheme, map));
        }

        // The WAL tail: inserts and creations stay resident; anything
        // heavier (schema evolution, wholesale replacement) would force
        // this view to re-derive relations — the eager loader's job.
        let wal_file = wal_path(dir, epoch);
        let mut tails: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        if wal_file.exists() {
            let (records, _torn) =
                Wal::replay(&wal_file).map_err(|e| io_with_path(&wal_file, e))?;
            for record in records {
                match record {
                    WalRecord::CreateRelation { name, scheme } => {
                        catalog.create_relation(&name, scheme.clone())?;
                        // No checkpoint image yet: an empty resident map.
                        let map = PartitionMap::build(&Relation::new(scheme.clone()), policy);
                        rels.insert(name, PagedRelation::new(scheme, map));
                    }
                    WalRecord::Insert { relation, tuple } => {
                        let Some(pr) = rels.get_mut(&relation) else {
                            return Err(DbError::BadFile(format!(
                                "{}: insert into unknown relation `{relation}`",
                                wal_file.display()
                            )));
                        };
                        tuple.validate(&pr.scheme).map_err(DbError::Model)?;
                        tails.entry(relation).or_default().push(tuple);
                    }
                    other => {
                        return Err(DbError::Mode(format!(
                            "{}: WAL tail holds {} — checkpoint the database before opening it paged",
                            wal_file.display(),
                            record_kind(&other)
                        )));
                    }
                }
            }
        }
        for (name, tuples) in tails {
            if let Some(pr) = rels.get_mut(&name) {
                pr.tail = Relation::from_distinct_unchecked(pr.scheme.clone(), tuples);
            }
        }

        Ok(PagedDatabase {
            dir: dir.to_path_buf(),
            pool,
            catalog: Arc::new(catalog),
            policy,
            epoch,
            rels,
        })
    }

    /// The buffer pool this database reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The checkpoint epoch the view is reading.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The catalog (checkpoint + tail creations).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The registered relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.rels.keys().map(String::as_str)
    }

    /// The scheme of `name`.
    pub fn scheme(&self, name: &str) -> Option<&Scheme> {
        self.rels.get(name).map(|r| &r.scheme)
    }

    /// Total tuples of `name` (checkpoint image + WAL tail), known
    /// without touching a heap page.
    pub fn tuple_count(&self, name: &str) -> Option<usize> {
        self.rels
            .get(name)
            .map(|r| r.map.tuple_count() + r.tail.len())
    }

    /// The cold partition map of `name` — pruning metadata only.
    pub fn partition_map(&self, name: &str) -> Option<&PartitionMap> {
        self.rels.get(name).map(|r| &r.map)
    }

    /// Ids of `name`'s partitions whose heap file has been opened (and
    /// thus possibly read) so far — the complement is provably cold.
    pub fn opened_partitions(&self, name: &str) -> Vec<i64> {
        self.rels.get(name).map_or_else(Vec::new, |r| {
            r.heaps
                .lock()
                .expect("paged heap cache lock")
                .keys()
                .copied()
                .collect()
        })
    }

    /// Heap records of `name` that this view's scans have visited so far:
    /// each cost a lifespan probe. The records of pages a scan skipped by
    /// their zone are not counted.
    pub fn records_scanned(&self, name: &str) -> u64 {
        self.rels
            .get(name)
            .map_or(0, |r| r.records_scanned.load(Ordering::SeqCst))
    }

    /// Heap records of `name` that this view's scans have decoded in full
    /// so far: those whose lifespan met the window.
    pub fn records_decoded(&self, name: &str) -> u64 {
        self.rels
            .get(name)
            .map_or(0, |r| r.records_decoded.load(Ordering::SeqCst))
    }

    /// Materializes the whole database as a [`DbSnapshot`] — every
    /// partition of every relation. Equivalent to
    /// [`Database::load`](crate::Database::load) + snapshot, but reading
    /// through the pool's bounded memory.
    pub fn snapshot(&self) -> Result<DbSnapshot, DbError> {
        self.window_snapshot(None)
    }

    /// Materializes a [`DbSnapshot`] holding exactly the tuples whose
    /// lifespan intersects `window` (all tuples when `None`).
    ///
    /// Partitions whose summary cannot intersect the window are pruned
    /// from catalog metadata alone — their heap files are never opened.
    /// The snapshot is sound for any query whose observable tuples all
    /// intersect `window` (see `hrdm-query`'s `materialization_window`).
    /// Queries read the cold partitions in their plans' scans instead
    /// ([`PagedDatabase::read_cold`]); this stays for the benchmark's
    /// traced replay and the tests until the benchmark is re-pointed.
    pub fn window_snapshot(&self, window: Option<&Lifespan>) -> Result<DbSnapshot, DbError> {
        let mut tables = Tables::new();
        for (name, pr) in &self.rels {
            let rel = self.materialize(name, pr, window)?;
            tables.insert(
                name.as_str().into(),
                Arc::new(Table::build(rel, self.policy)),
            );
        }
        let version = self.rels.values().map(|r| r.tail.len() as u64).sum();
        Ok(DbSnapshot::new(
            Arc::clone(&self.catalog),
            tables,
            Some(self.epoch),
            version,
        ))
    }

    /// Reads one relation's window-intersecting tuples in the eager
    /// loader's order: partitions by ascending id, heap order (birth
    /// order) within one, then the WAL tail.
    fn materialize(
        &self,
        name: &str,
        pr: &PagedRelation,
        window: Option<&Lifespan>,
    ) -> Result<Relation, DbError> {
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut any_clipped = false;
        for id in pr.map.cold_ids(window) {
            any_clipped |= self.read_cold(name, id, window, None, &mut tuples)?.clipped;
        }
        tuples.extend(
            pr.tail
                .iter()
                .filter(|t| window.is_none_or(|w| t.lifespan().intersects(w)))
                .cloned(),
        );
        // A relation is a set: its checkpoint image and WAL tail hold
        // distinct tuples, and only clipping can make two equal.
        Ok(if any_clipped {
            Relation::from_parts_unchecked(pr.scheme.clone(), tuples)
        } else {
            Relation::from_distinct_unchecked(pr.scheme.clone(), tuples)
        })
    }

    /// The resident tuples of `name`: its WAL tail. The checkpoint image
    /// is the cold partitions of [`PagedDatabase::partition_map`], read
    /// with [`PagedDatabase::read_cold`].
    pub fn resident(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name).map(|r| &r.tail)
    }

    /// Appends to `out`, in heap order, the tuples of `name`'s cold
    /// partition `id` whose lifespan meets `window` (every tuple when
    /// `None`), each restricted to `clip` when one is given: what a query
    /// plan's scan reads of a cold partition. Pages whose zone misses the
    /// window are skipped, each visited record's lifespan is probed in
    /// place, and only the hits are decoded ([`crate::decode_record`]).
    pub fn read_cold(
        &self,
        name: &str,
        id: i64,
        window: Option<&Lifespan>,
        clip: Option<&Lifespan>,
        out: &mut Vec<Tuple>,
    ) -> Result<PartitionRead, DbError> {
        let Some(pr) = self.rels.get(name) else {
            return Err(DbError::Model(HrdmError::UnknownRelation(name.to_string())));
        };
        let Some(part) = pr.map.partition(id) else {
            return Ok(PartitionRead::default());
        };
        let heap = self.heap(name, pr, id)?;
        let read = read_partition(
            &heap,
            (id, part.len() as u64),
            &pr.scheme,
            window,
            clip,
            part.page_zones(),
            out,
        )?;
        pr.records_scanned.fetch_add(read.scanned, Ordering::SeqCst);
        pr.records_decoded.fetch_add(read.decoded, Ordering::SeqCst);
        if hrdm_obs::enabled() {
            storage_obs().paged_records_scanned.add(read.scanned);
            storage_obs().paged_records_decoded.add(read.decoded);
        }
        Ok(read)
    }

    /// The heap of partition `id`, opened on first use.
    fn heap(&self, name: &str, pr: &PagedRelation, id: i64) -> Result<Arc<HeapFile>, DbError> {
        let mut heaps = pr.heaps.lock().expect("paged heap cache lock");
        if let Some(h) = heaps.get(&id) {
            return Ok(Arc::clone(h));
        }
        let path = partition_heap_path(&self.dir, name, self.epoch, id);
        let heap = Arc::new(
            HeapFile::open_in(&path, Arc::clone(&self.pool)).map_err(|e| io_with_path(&path, e))?,
        );
        heaps.insert(id, Arc::clone(&heap));
        Ok(heap)
    }
}

fn record_kind(record: &WalRecord) -> &'static str {
    match record {
        WalRecord::CreateRelation { .. } => "a relation creation",
        WalRecord::Insert { .. } => "an insert",
        WalRecord::AddAttribute { .. } => "schema evolution (add attribute)",
        WalRecord::DropAttribute { .. } => "schema evolution (drop attribute)",
        WalRecord::ReAddAttribute { .. } => "schema evolution (re-add attribute)",
        WalRecord::PutRelation { .. } => "a wholesale relation replacement",
    }
}

//! A persistent database of historical relations, with a crash-safe
//! attached mode.
//!
//! Layout on disk: one directory per database, containing
//!
//! * `catalog.hrdm` — magic + version + **checkpoint epoch** + catalog +
//!   CRC; renamed into place atomically, so it is the commit point of
//!   every checkpoint;
//! * `<relation>.<epoch>.heap` — one heap file per relation per
//!   checkpoint epoch, each record an encoded tuple;
//! * `wal.<epoch>.log` — the write-ahead log of mutations since the
//!   checkpoint that produced `epoch`.
//!
//! ## Durability protocol
//!
//! A **detached** database ([`Database::new`]) lives in memory; [`Database::save`]
//! exports an epoch-0 snapshot. An **attached** database ([`Database::open`])
//! appends every acknowledged mutation to the WAL (fsync'd) *before* it is
//! applied in memory — mutations are pre-validated so the log only ever
//! holds applicable records. [`Database::open`] recovers by loading the
//! checkpointed state and replaying the WAL tail, truncating torn tails.
//!
//! [`Database::checkpoint`] folds the WAL into fresh heap files under the
//! *next* epoch, then commits by atomically renaming the new catalog into
//! place (tmp file + fsync + rename). A kill at any instant leaves either
//! the old epoch's files + intact WAL, or the new epoch's files + empty
//! WAL — both loadable, neither losing an acknowledged write.

use crate::btree::LifespanBTree;
use crate::catalog::Catalog;
use crate::codec::{CodecError, Decoder, Encoder};
use crate::heap::HeapFile;
use crate::page::{crc32, PageWriter};
use crate::partition::{birth_of, position_u32, PageZone, PartitionMap, PartitionPolicy};
use crate::pool::BufferPool;
use crate::snapshot::DbSnapshot;
use crate::table::{ImageRead, Table, Tables};
use crate::wal::{Wal, WalRecord};
use hrdm_core::{Attribute, HistoricalDomain, HrdmError, Relation, Scheme, Tuple};
use hrdm_index::{Hull, KeyIndex};
use hrdm_time::{Chronon, Lifespan};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const MAGIC: &[u8; 4] = b"HRDM";
/// Catalog header version. v3 added the partition section: the boundary
/// policy plus, per relation, the per-partition manifest (id, tuple count,
/// min/max lifespan summary) that [`read_checkpoint`] uses to reassemble
/// relations from their per-partition heap files.
const VERSION: u32 = 3;
const CATALOG_FILE: &str = "catalog.hrdm";

/// Errors from database persistence.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem error.
    Io(io::Error),
    /// Encoding/decoding error.
    Codec(CodecError),
    /// Model-level error.
    Model(HrdmError),
    /// Bad file header or checksum.
    BadFile(String),
    /// The operation does not apply in the database's current attachment
    /// mode (e.g. `checkpoint` on a detached database, or writing through
    /// a poisoned WAL).
    Mode(String),
    /// `put_relation` contents whose scheme differs from the catalog's
    /// current scheme for that relation (persistence is catalog-driven:
    /// such contents could not survive a checkpoint + open round trip).
    SchemeMismatch {
        /// The target relation.
        relation: String,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Codec(e) => write!(f, "codec error: {e}"),
            DbError::Model(e) => write!(f, "model error: {e}"),
            DbError::BadFile(what) => write!(f, "bad database file: {what}"),
            DbError::Mode(what) => write!(f, "mode error: {what}"),
            DbError::SchemeMismatch { relation } => write!(
                f,
                "new contents for `{relation}` do not carry its catalog scheme"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}
impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Codec(e)
    }
}
impl From<HrdmError> for DbError {
    fn from(e: HrdmError) -> Self {
        DbError::Model(e)
    }
}

/// The durable half of an attached database: where it lives, which
/// checkpoint epoch its heap files carry, and the open WAL.
struct Attachment {
    dir: PathBuf,
    epoch: u64,
    wal: Wal,
    /// Set when a WAL append failed. The in-memory state was rolled back
    /// (memory equals the durable state), but the log's tail may be torn
    /// by the partial write, so further appends are refused until a
    /// [`Database::checkpoint`] rotates to a fresh log.
    poisoned: bool,
}

/// What a failed batch fsync must restore: the pinned pre-batch state (see
/// [`Database::undo_point`]).
struct BatchUndo {
    catalog: Arc<Catalog>,
    tables: Tables,
    ops_applied: u64,
}

/// An in-memory database of historical relations with directory-based
/// persistence — the physical level a downstream user actually touches.
///
/// All mutation funnels through [`Database::commit_batch`], which validates
/// each operation against the current state, applies it, and write-ahead
/// logs the whole batch as **one fsync'd frame** — the group-commit write
/// path that [`crate::ConcurrentDatabase`] drives from many threads. The
/// single-op methods ([`Database::insert`], …) are one-element batches.
///
/// ## Sharing and copy-on-write
///
/// Each relation's tuples, key index (`hrdm-index`) and chronon-range
/// partition map live together in one `Arc`'d table, maintained
/// **incrementally** by inserts and rebuilt in bulk by
/// `put_relation`/`create_relation`/[`Database::load`]. Taking a
/// [`DbSnapshot`] ([`Database::snapshot`]) bumps one reference count per
/// relation. The insert that follows finds its table shared and copies
/// what it is about to change — the tuple vector's 64-slot tail, the key
/// index's newest tier (at most 32 entries), and the one partition the
/// tuple lands in (with its lifespan index's short pending block) — O(log n)
/// in all, never the relation. With no snapshot (or batch undo point)
/// outstanding, inserts mutate in place.
#[derive(Default)]
pub struct Database {
    /// Copy-on-write: snapshots share the catalog via this `Arc`, and the
    /// rare catalog-changing ops (create, evolution) clone it first.
    catalog: Arc<Catalog>,
    /// Per relation: tuples plus the access paths over them. Checkpoints
    /// persist one heap file per partition and rewrite only the dirty
    /// ones.
    tables: Tables,
    /// `Some` when attached to a directory (durable mode).
    attachment: Option<Attachment>,
    /// Monotone count of applied mutations — the version stamped onto
    /// snapshots, so readers can order the states they observe.
    ops_applied: u64,
    /// The boundary policy new partition maps are built under. Persisted
    /// in the catalog (header v3) at checkpoint; **not** WAL-logged —
    /// partitioning is physical, so a policy change between checkpoints
    /// reverts to the persisted policy on crash recovery (same data,
    /// different cut).
    partition_policy: PartitionPolicy,
}

impl Database {
    /// An empty, detached database.
    pub fn new() -> Database {
        Database::default()
    }

    /// A detached database holding `relations` (each registered under its
    /// own scheme), partitioned under `policy` — an in-memory query source
    /// with the same access paths an opened database has.
    pub fn with_relations<N: AsRef<str>>(
        policy: PartitionPolicy,
        relations: impl IntoIterator<Item = (N, Relation)>,
    ) -> Result<Database, DbError> {
        let mut db = Database::new();
        db.set_partition_policy(policy);
        for (name, relation) in relations {
            db.create_relation(name.as_ref(), relation.scheme().clone())?;
            db.put_relation(name.as_ref(), relation)?;
        }
        Ok(db)
    }

    /// Is this database attached to a directory (durable mode)?
    pub fn is_attached(&self) -> bool {
        self.attachment.is_some()
    }

    /// The attached directory, if any.
    pub fn attached_dir(&self) -> Option<&Path> {
        self.attachment.as_ref().map(|a| a.dir.as_path())
    }

    /// The current checkpoint epoch of an attached database.
    pub fn epoch(&self) -> Option<u64> {
        self.attachment.as_ref().map(|a| a.epoch)
    }

    /// The catalog (schemes + evolution log).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access for schema-evolution operations.
    ///
    /// **Detached use only**: edits through this handle bypass the WAL, so
    /// on an attached database they are not durable until the next
    /// [`Database::checkpoint`]. Prefer [`Database::add_attribute`] /
    /// [`Database::drop_attribute`] / [`Database::re_add_attribute`].
    ///
    /// Note: evolving a scheme does not retroactively invalidate stored
    /// tuples; values outside a *shrunk* ALS become invisible to `vls`, per
    /// the paper's semantics.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.catalog)
    }

    /// Creates a relation. On an attached database the creation is
    /// write-ahead logged (fsync'd) before it is acknowledged.
    pub fn create_relation(&mut self, name: &str, scheme: Scheme) -> Result<(), DbError> {
        self.commit_one(WalRecord::CreateRelation {
            name: name.to_string(),
            scheme,
        })
    }

    /// The relation named `name`.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|t| &t.relation)
    }

    /// Replaces the contents of `name` (e.g. with a query result),
    /// rebuilding its indexes. On an attached database the replacement is
    /// write-ahead logged (fsync'd) before it is acknowledged.
    ///
    /// The relation must have been registered via
    /// [`Database::create_relation`] first, and the new contents must
    /// carry the catalog's current scheme for `name` — persistence is
    /// driven by the catalog, so divergent contents would be rejected
    /// when a checkpoint's heap files are re-validated on the next open
    /// (bricking the database), and an unregistered relation would
    /// silently not survive a save/load round trip.
    pub fn put_relation(&mut self, name: &str, relation: Relation) -> Result<(), DbError> {
        self.commit_one(WalRecord::PutRelation {
            relation: name.to_string(),
            contents: relation,
        })
    }

    /// Installs `relation` as the contents of `name`, its access paths
    /// built in bulk.
    fn put_table(&mut self, name: &str, relation: Relation) {
        let table = Table::build(relation, self.partition_policy);
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Inserts a tuple into `name`, maintaining the relation's indexes
    /// incrementally (the planner keeps its index scans between writes).
    /// On an attached database the insert is write-ahead logged (fsync'd)
    /// before it is acknowledged.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<(), DbError> {
        self.commit_one(WalRecord::Insert {
            relation: name.to_string(),
            tuple,
        })
    }

    /// Commits one operation — a one-element [`Database::commit_batch`].
    fn commit_one(&mut self, record: WalRecord) -> Result<(), DbError> {
        self.commit_batch(vec![record]).pop().unwrap_or_else(|| {
            Err(DbError::Mode(
                "internal: commit_batch returned no result for a one-op batch".into(),
            ))
        })
    }

    /// Validates, applies, and durably logs a **batch** of mutations with a
    /// single fsync — the group-commit write path.
    ///
    /// Each operation is validated against the state left by the operations
    /// before it (so a batch behaves exactly like the same ops committed
    /// one at a time, in order) and applied in memory; every valid
    /// operation's WAL record is then written as one multi-record batch
    /// frame ([`Wal::append_batch`]) and fsync'd once. Per-op results come
    /// back in op order: validation failures affect only their own op.
    ///
    /// If the batch fsync fails, the in-memory state **rolls back** to the
    /// pre-batch state (so memory always equals the durable state), the
    /// log is cut back (best effort) to its pre-batch length so a
    /// crash-reopen cannot resurrect the failed records, every op in the
    /// batch reports the I/O error, and the attachment is poisoned — the
    /// on-disk log tail may still be torn if the cut also failed, so
    /// further appends are refused until [`Database::checkpoint`] rotates
    /// to a fresh log.
    pub fn commit_batch(&mut self, ops: Vec<WalRecord>) -> Vec<Result<(), DbError>> {
        if ops.is_empty() {
            return Vec::new();
        }
        if self.check_writable().is_err() {
            // Re-derive the refusal per op: `check_writable` is pure in
            // `&self`, so every call yields the same poisoned-WAL error.
            return ops.iter().map(|_| self.check_writable()).collect();
        }
        let attached = self.attachment.is_some();
        let undo = attached.then(|| self.undo_point());
        let mut results: Vec<Result<(), DbError>> = Vec::with_capacity(ops.len());
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for op in ops {
            // Encoded before `apply` moves the record into the state, and
            // only when there is a log to write it to.
            let payload = attached.then(|| op.payload());
            match self.apply(op) {
                Ok(changed) => {
                    // An acknowledged no-op has nothing to log.
                    payloads.extend(payload.filter(|_| changed));
                    results.push(Ok(()));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if !payloads.is_empty() {
            if let Some(att) = &mut self.attachment {
                let pre_append_offset = att.wal.offset();
                if let Err(e) = att.wal.append_batch(&payloads) {
                    att.poisoned = true;
                    // Cut any (partially or even fully) written frames of
                    // the failed batch back off the log: none of them was
                    // acknowledged, so none may survive a crash-reopen.
                    // Best effort — if the cut fails too, the poison keeps
                    // further appends out and checkpoint() rotates the log.
                    if let Ok(offset) = pre_append_offset {
                        let _ = att.wal.rollback_to(offset);
                    }
                    if let Some(undo) = undo {
                        self.rollback(undo);
                    }
                    // Nothing in the batch is durable, so nothing in it is
                    // acknowledged — even in-batch no-ops, whose "already
                    // present" justification may have been rolled back.
                    return results
                        .iter()
                        .map(|_| {
                            Err(DbError::Io(io::Error::new(
                                e.kind(),
                                format!("group-commit fsync failed: {e}"),
                            )))
                        })
                        .collect();
                }
            }
        }
        results
    }

    /// Pins the pre-batch state for a failed batch fsync to restore: one
    /// reference-count bump per relation. The first op of the batch to
    /// touch a relation then copies what it changes of that relation's
    /// table (O(log n), see [`Table`]), exactly as after a snapshot.
    fn undo_point(&self) -> BatchUndo {
        BatchUndo {
            catalog: Arc::clone(&self.catalog),
            tables: self.tables.clone(),
            ops_applied: self.ops_applied,
        }
    }

    /// Restores the state captured by [`Database::undo_point`] — memory
    /// returns to exactly the pre-batch (durable) state, so a write that
    /// returned `Err` never becomes visible, not even through a later
    /// checkpoint. Partition dirty flags come back as they were.
    fn rollback(&mut self, undo: BatchUndo) {
        self.catalog = undo.catalog;
        self.tables = undo.tables;
        self.ops_applied = undo.ops_applied;
    }

    /// Applies one WAL record to the in-memory state — the one place a
    /// record changes a database, whether [`Database::commit_batch`]
    /// commits it or recovery replays it. The record is validated against
    /// the current state first, so one that fails changes nothing.
    /// Returns whether the state changed: `false` is an acknowledged no-op
    /// (a keyless insert of a tuple already present), with nothing to log.
    fn apply(&mut self, op: WalRecord) -> Result<bool, DbError> {
        // Catalog edits validate before they change anything, so a failed
        // one leaves the catalog as it was.
        match op {
            WalRecord::CreateRelation { name, scheme } => {
                Arc::make_mut(&mut self.catalog).create_relation(&name, scheme.clone())?;
                self.put_table(&name, Relation::new(scheme));
            }
            WalRecord::Insert { relation, tuple } => {
                let Some(table) = self.tables.get_mut(relation.as_str()) else {
                    return Err(HrdmError::UnknownRelation(relation).into());
                };
                if !insert_applies(table, &tuple)? {
                    return Ok(false);
                }
                // Shared with a snapshot or an undo point → a cheap clone of
                // the table (which shares its bulk), mutated; unshared → in
                // place.
                Arc::make_mut(table).push(tuple);
            }
            WalRecord::PutRelation { relation, contents } => {
                let Some(scheme) = self.catalog.scheme(&relation) else {
                    return Err(HrdmError::UnknownRelation(relation).into());
                };
                if contents.scheme() != scheme {
                    return Err(DbError::SchemeMismatch { relation });
                }
                self.put_table(&relation, contents);
            }
            WalRecord::AddAttribute {
                relation,
                attribute,
                domain,
                from,
                to,
            } => {
                Arc::make_mut(&mut self.catalog)
                    .add_attribute(&relation, attribute, domain, from, to)?;
                self.resync_relation_scheme(&relation);
            }
            WalRecord::DropAttribute {
                relation,
                attribute,
                at,
            } => {
                Arc::make_mut(&mut self.catalog).drop_attribute(&relation, &attribute, at)?;
                self.resync_relation_scheme(&relation);
            }
            WalRecord::ReAddAttribute {
                relation,
                attribute,
                from,
                to,
            } => {
                Arc::make_mut(&mut self.catalog)
                    .re_add_attribute(&relation, &attribute, from, to)?;
                self.resync_relation_scheme(&relation);
            }
        }
        self.ops_applied += 1;
        Ok(true)
    }

    /// Adds a fresh attribute to `relation`, write-ahead logged when
    /// attached. See [`Catalog::add_attribute`].
    pub fn add_attribute(
        &mut self,
        relation: &str,
        attribute: Attribute,
        domain: HistoricalDomain,
        from: Chronon,
        to: Chronon,
    ) -> Result<(), DbError> {
        self.commit_one(WalRecord::AddAttribute {
            relation: relation.to_string(),
            attribute,
            domain,
            from,
            to,
        })
    }

    /// Drops an attribute of `relation` as of `at`, write-ahead logged when
    /// attached. See [`Catalog::drop_attribute`].
    pub fn drop_attribute(
        &mut self,
        relation: &str,
        attribute: &Attribute,
        at: Chronon,
    ) -> Result<(), DbError> {
        self.commit_one(WalRecord::DropAttribute {
            relation: relation.to_string(),
            attribute: attribute.clone(),
            at,
        })
    }

    /// Re-adds a dropped attribute of `relation` over `[from, to]`,
    /// write-ahead logged when attached. See [`Catalog::re_add_attribute`].
    pub fn re_add_attribute(
        &mut self,
        relation: &str,
        attribute: &Attribute,
        from: Chronon,
        to: Chronon,
    ) -> Result<(), DbError> {
        self.commit_one(WalRecord::ReAddAttribute {
            relation: relation.to_string(),
            attribute: attribute.clone(),
            from,
            to,
        })
    }

    /// Rebuilds the live relation of `name` under the catalog's current
    /// scheme, clipping stored values to the (possibly shrunk) attribute
    /// lifespans — exactly what a checkpoint + open round trip would
    /// produce. Without this, inserts validated against a stale relation
    /// scheme could be acknowledged yet fail WAL replay against the
    /// evolved scheme, leaving an unopenable database.
    fn resync_relation_scheme(&mut self, name: &str) {
        let Some(scheme) = self.catalog.scheme(name) else {
            return;
        };
        let Some(rel) = self.relation(name) else {
            return;
        };
        if rel.scheme() == scheme {
            return;
        }
        let scheme = scheme.clone();
        let tuples: Vec<Tuple> = rel.iter().map(|t| t.clipped_to_scheme(&scheme)).collect();
        // Positions, lifespans, and (constant) key values are untouched by
        // clipping, but rebuild for clarity — evolution is rare.
        self.put_table(name, Relation::from_parts_unchecked(scheme, tuples));
    }

    /// The current key index of `name`; `None` for an unknown relation, a
    /// keyless scheme, or a relation holding a tuple without a constant
    /// key value.
    pub fn key_index(&self, name: &str) -> Option<&KeyIndex> {
        self.tables.get(name)?.key_index()
    }

    /// The chronon-range partition map of `name` — the relation's lifespan
    /// access path; `None` means an unknown relation.
    pub fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        self.tables.get(name).map(|t| &t.partitions)
    }

    /// The boundary policy new partition maps are built under.
    pub fn partition_policy(&self) -> PartitionPolicy {
        self.partition_policy
    }

    /// Repartitions every relation under `policy` (e.g. halving the span
    /// to split hot partitions).
    ///
    /// Purely physical: contents, indexes, and query results are
    /// untouched; snapshots taken earlier keep their frozen maps, and a
    /// relation whose checkpoint image stays on disk keeps the image's. The
    /// policy is persisted by the next [`Database::checkpoint`] (it is
    /// not WAL-logged — a crash before that checkpoint recovers under the
    /// previously persisted policy, which re-derives an equivalent map).
    pub fn set_partition_policy(&mut self, policy: PartitionPolicy) {
        if policy == self.partition_policy {
            return;
        }
        self.partition_policy = policy;
        for table in self.tables.values_mut().filter(|t| t.cold.is_none()) {
            let table = Arc::make_mut(table);
            table.partitions = PartitionMap::build(&table.relation, policy);
        }
    }

    /// Marks every relation's partitions clean — the on-disk epoch now
    /// carries exactly their membership.
    fn mark_partitions_clean(&mut self) {
        for table in self.tables.values_mut() {
            Arc::make_mut(table).partitions.mark_clean();
        }
    }

    /// An immutable, cheaply-taken snapshot of the committed state.
    ///
    /// Cost is one reference-count bump per relation (plus the catalog's):
    /// no tuple, scheme, index entry or partition is copied, here or by
    /// the writes that follow (they copy O(log n) of what they change —
    /// see the type docs). The snapshot is wholly unaffected by later
    /// mutations, checkpoints, or WAL rotation — readers can evaluate
    /// whole query pipelines against it without any lock.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            catalog: Arc::clone(&self.catalog),
            tables: self.tables.clone(),
            epoch: self.epoch(),
            version: self.ops_applied,
        }
    }

    /// Monotone count of mutations applied to this database instance
    /// (stamped onto snapshots as their version).
    pub fn version(&self) -> u64 {
        self.ops_applied
    }

    /// The registered relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.tables.keys().map(|name| &**name)
    }

    /// Refuses durable writes once the WAL is poisoned (a failed append
    /// may have left a torn tail) — a checkpoint rotates to a fresh log.
    fn check_writable(&self) -> Result<(), DbError> {
        match &self.attachment {
            Some(att) if att.poisoned => Err(DbError::Mode(
                "write-ahead log poisoned by an earlier I/O error; checkpoint() to recover".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Attaches to `dir` (created if missing), recovering whatever state is
    /// there — exactly the state [`Database::load`] reads: the last
    /// checkpoint's catalog and heap files, plus every intact record of the
    /// WAL tail, replayed through the same applier that commits writes. On
    /// top of that, `open` mends the directory: it truncates a torn WAL
    /// tail, creates the WAL when there is none, and removes stray files of
    /// aborted checkpoints. The returned database is durable: every
    /// acknowledged write survives a crash.
    pub fn open(dir: &Path) -> Result<Database, DbError> {
        std::fs::create_dir_all(dir).map_err(|e| io_with_path(dir, e))?;
        let (mut db, epoch, torn_at) = match recover(dir, BufferPool::global(), |_, _| true)? {
            Some(found) => (found.db, found.epoch, found.torn_at),
            None => (Database::new(), 0, None),
        };
        let wal_file = wal_path(dir, epoch);
        match torn_at {
            Some(offset) => Wal::truncate(&wal_file, offset),
            None if !wal_file.exists() => Wal::create_empty(&wal_file),
            None => Ok(()),
        }
        .map_err(|e| io_with_path(&wal_file, e))?;
        cleanup_stray_files(dir, epoch);
        let wal = Wal::open(&wal_file).map_err(|e| io_with_path(&wal_file, e))?;
        db.attachment = Some(Attachment {
            dir: dir.to_path_buf(),
            epoch,
            wal,
            poisoned: false,
        });
        Ok(db)
    }

    /// Folds the WAL into a fresh checkpoint: heap files and an empty WAL
    /// are written under the next epoch, then the new catalog is renamed
    /// into place — the atomic commit point. A kill at any instant leaves
    /// a loadable database that has lost no acknowledged write. Clears a
    /// poisoned WAL (disk is resynchronized with memory).
    ///
    /// Heap files are per partition, and only **dirty** partitions (those
    /// whose membership changed since the previous checkpoint) are
    /// rewritten; clean partitions are carried into the new epoch by hard
    /// link — a checkpoint after a burst of inserts into one chronon
    /// range costs one partition rewrite, not a full-database rewrite.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        let started = hrdm_obs::enabled().then(std::time::Instant::now);
        let (dir, old_epoch) = match &self.attachment {
            Some(att) => (att.dir.clone(), att.epoch),
            None => {
                return Err(DbError::Mode(
                    "checkpoint() requires an attached database; use open()".into(),
                ))
            }
        };
        let new_epoch = old_epoch + 1;
        self.write_state(&dir, new_epoch, Some(old_epoch))?;
        // Commit happened (catalog renamed): switch the live attachment.
        // From here on, recovery reads epoch e+1 — if the new WAL cannot
        // be opened, appending to the *old* one would lose writes, so the
        // attachment must be poisoned, not left silently on the old epoch.
        let wal_file = wal_path(&dir, new_epoch);
        let wal = match Wal::open(&wal_file) {
            Ok(wal) => wal,
            Err(e) => {
                if let Some(att) = &mut self.attachment {
                    att.poisoned = true;
                }
                return Err(io_with_path(&wal_file, e));
            }
        };
        self.attachment = Some(Attachment {
            dir: dir.clone(),
            epoch: new_epoch,
            wal,
            poisoned: false,
        });
        // The new epoch carries every partition's current membership.
        self.mark_partitions_clean();
        cleanup_stray_files(&dir, new_epoch);
        if let Some(started) = started {
            crate::obs::storage_obs()
                .checkpoint_ns
                .record_duration(started.elapsed());
        }
        Ok(())
    }

    /// Persists the database into `dir` (created if needed) as a fresh
    /// epoch-0 snapshot, all files written atomically (tmp + fsync +
    /// rename for the catalog commit point).
    ///
    /// Detached export only: an attached database must use
    /// [`Database::checkpoint`], which also rotates its live WAL.
    pub fn save(&self, dir: &Path) -> Result<(), DbError> {
        if let Some(att) = &self.attachment {
            if same_dir(&att.dir, dir) {
                return Err(DbError::Mode(
                    "save() into the attached directory would bypass the WAL; use checkpoint()"
                        .into(),
                ));
            }
        }
        std::fs::create_dir_all(dir).map_err(|e| io_with_path(dir, e))?;
        self.write_state(dir, 0, None)?;
        cleanup_stray_files(dir, 0);
        Ok(())
    }

    /// Writes the complete current state under `epoch`: one heap file per
    /// partition, an empty WAL, then the catalog (with the partition
    /// manifest) via tmp + fsync + rename — the commit point; files of a
    /// new epoch are invisible until it lands.
    ///
    /// A rewritten partition's heap holds its members in (birth chronon,
    /// position) order, not insertion order, so each heap page covers a
    /// narrow birth range and a cold scan can skip the pages a window
    /// misses (see [`crate::PagedDatabase`]). A reopened relation is
    /// therefore partition-major and birth-ordered within a partition.
    ///
    /// With `link_from = Some(old_epoch)` (the checkpoint path), clean
    /// partitions are hard-linked from the old epoch's files instead of
    /// rewritten; heap files are immutable once committed, so sharing the
    /// inode across epochs is safe. A failed link silently degrades to a
    /// fresh write.
    ///
    /// Every heap and B+tree file is written front to back by one
    /// [`PageWriter`], never through the buffer pool, and every I/O error
    /// names the file it concerns.
    fn write_state(&self, dir: &Path, epoch: u64, link_from: Option<u64>) -> Result<(), DbError> {
        let mut linked = 0u64;
        let mut rewritten = 0u64;
        for (name, table) in &self.tables {
            let (rel, parts) = (&table.relation, &table.partitions);
            let mut any_dirty = false;
            for (id, part) in parts.iter() {
                let final_path = partition_heap_path(dir, name, epoch, id);
                if let Some(old_epoch) = link_from {
                    if !part.is_dirty()
                        && link_partition_file(
                            &partition_heap_path(dir, name, old_epoch, id),
                            &final_path,
                        )
                    {
                        linked += 1;
                        continue;
                    }
                }
                any_dirty = true;
                rewritten += 1;
                let tmp_path = tmp_sibling(&final_path);
                let mut heap = PageWriter::create(&tmp_path)?;
                // Birth order (ties in position order: the sort is
                // stable), so one heap page holds a narrow birth range and
                // its zone can prune a narrow window.
                let mut members: Vec<&Tuple> =
                    part.positions().filter_map(|p| rel.tuple_at(p)).collect();
                members.sort_by_key(|t| birth_of(t).tick());
                for tuple in members {
                    let mut e = Encoder::new();
                    e.put_tuple(tuple);
                    heap.push(&e.finish())?;
                }
                heap.finish()?;
                rename(&tmp_path, &final_path)?;
            }
            // The relation's on-disk B+tree over (birth, position): one
            // file per relation per epoch, linked across epochs whenever
            // no partition changed (same membership ⇒ same entries).
            let btx_final = btree_path(dir, name, epoch);
            let carried = !any_dirty
                && link_from.is_some_and(|old| {
                    link_partition_file(&btree_path(dir, name, old), &btx_final)
                });
            if !carried {
                let mut entries: Vec<(i64, u32)> = rel
                    .iter()
                    .enumerate()
                    .map(|(pos, tuple)| (birth_of(tuple).tick(), position_u32(pos)))
                    .collect();
                let tmp_path = tmp_sibling(&btx_final);
                LifespanBTree::build(&tmp_path, &mut entries)?;
                rename(&tmp_path, &btx_final)?;
            }
        }
        let wal_file = wal_path(dir, epoch);
        Wal::create_empty(&wal_file).map_err(|e| io_with_path(&wal_file, e))?;
        // Every file of the new epoch now has its final name; make those
        // names durable — once, for all of them — before the catalog that
        // refers to them can be.
        fsync_dir(dir);

        // Catalog file: MAGIC | VERSION | EPOCH | payload-len | payload | crc,
        // where the v3 payload is catalog ‖ partition policy ‖ manifest.
        let mut enc = Encoder::new();
        self.catalog.encode(&mut enc);
        self.partition_policy.encode(&mut enc);
        enc.put_u64(self.tables.len() as u64);
        for (name, table) in &self.tables {
            let parts = &table.partitions;
            enc.put_str(name);
            enc.put_u64(parts.partition_count() as u64);
            for (id, part) in parts.iter() {
                let (min_lo, max_hi) = part.summary_bounds();
                enc.put_i64(id);
                enc.put_u64(part.len() as u64);
                enc.put_i64(min_lo);
                enc.put_i64(max_hi);
            }
        }
        let payload = enc.finish();
        let mut file = Vec::with_capacity(payload.len() + 24);
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&epoch.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&crc32(&payload).to_le_bytes());
        let final_path = dir.join(CATALOG_FILE);
        let tmp_path = tmp_sibling(&final_path);
        std::fs::File::create(&tmp_path)
            .and_then(|mut f| {
                io::Write::write_all(&mut f, &file)?;
                f.sync_all()
            })
            .map_err(|e| io_with_path(&tmp_path, e))?;
        rename(&tmp_path, &final_path)?;
        // Make the commit point itself durable before reporting success.
        fsync_dir(dir);
        // Only checkpoints (link_from set) report partition-rewrite work;
        // a detached save always rewrites everything by construction.
        if link_from.is_some() && hrdm_obs::enabled() {
            let obs = crate::obs::storage_obs();
            obs.checkpoint_dirty_partitions.add(rewritten);
            obs.checkpoint_linked_partitions.add(linked);
        }
        Ok(())
    }

    /// Loads a database from `dir` read-only (no attachment): the state
    /// [`Database::open`] recovers, without touching the directory. A
    /// directory that was never checkpointed holds its whole state in
    /// `wal.0.log`; one with neither a catalog nor that log is `NotFound`.
    pub fn load(dir: &Path) -> Result<Database, DbError> {
        let found = recover(dir, BufferPool::global(), |_, _| true)?;
        Ok(found.ok_or_else(|| no_database(dir))?.db)
    }
}

/// What [`recover`] read from a directory.
pub(crate) struct Recovered {
    /// The recovered state, detached: the relations read in full, and
    /// each relation left cold as its checkpoint image plus the tuples its
    /// WAL tail inserted.
    pub(crate) db: Database,
    /// The checkpoint epoch; 0 before the first checkpoint.
    pub(crate) epoch: u64,
    /// Where the WAL's intact records end, when a torn record follows.
    pub(crate) torn_at: Option<u64>,
}

/// Recovers the state of `dir`: the one routine behind [`Database::open`],
/// [`Database::load`] and [`crate::PagedDatabase::open`]. It reads the
/// intact records of the WAL tail, then the checkpoint ([`read_checkpoint`])
/// with the relations `read_in_full(records, name)` names read in full and
/// every other one left cold (its heaps read through `pool`), then applies
/// each record through the applier that commits writes. A record that
/// fails to apply fails the recovery with a [`DbError::BadFile`] naming
/// the log and the record's index.
/// `None` when `dir` holds neither a catalog nor `wal.0.log`.
pub(crate) fn recover(
    dir: &Path,
    pool: &Arc<BufferPool>,
    read_in_full: impl Fn(&[WalRecord], &str) -> bool,
) -> Result<Option<Recovered>, DbError> {
    let manifest = read_catalog_manifest(dir)?;
    let epoch = manifest.as_ref().map_or(0, |m| m.epoch);
    let wal_file = wal_path(dir, epoch);
    let (records, torn_at) = if wal_file.exists() {
        Wal::replay(&wal_file).map_err(|e| io_with_path(&wal_file, e))?
    } else if manifest.is_some() {
        (Vec::new(), None)
    } else {
        return Ok(None);
    };
    let mut db = match manifest {
        Some(manifest) => {
            read_checkpoint(dir, manifest, pool, |name| read_in_full(&records, name))?
        }
        None => Database::new(),
    };
    // The checkpointed tables come with their indexes built in bulk, and
    // nothing shares them yet: the replayed inserts maintain them in place.
    for (k, record) in records.into_iter().enumerate() {
        db.apply(record)
            .map_err(|e| DbError::BadFile(format!("{}: record {k}: {e}", wal_file.display())))?;
    }
    Ok(Some(Recovered { db, epoch, torn_at }))
}

/// The error of opening a directory that holds no database.
pub(crate) fn no_database(dir: &Path) -> DbError {
    DbError::Io(io::Error::new(
        io::ErrorKind::NotFound,
        format!(
            "no database at {}: neither catalog.hrdm nor wal.0.log",
            dir.display()
        ),
    ))
}

/// Runs the checks [`Relation::insert`] would run of `tuple` against
/// `table`, without inserting it: `Ok(false)` when a keyless relation holds
/// the tuple already (set semantics: a no-op). Probes the maintained key
/// index for a duplicate key where there is one.
fn insert_applies(table: &Table, tuple: &Tuple) -> Result<bool, DbError> {
    let rel = &table.relation;
    tuple.validate(rel.scheme())?;
    if rel.scheme().key().is_empty() {
        return Ok(!rel.contains_tuple(tuple));
    }
    let key = tuple.key_values(rel.scheme())?;
    let duplicate = match &table.key {
        Some(key_idx) => !key_idx.lookup(&key).is_empty(),
        None => rel.find_by_key(&key).is_some(),
    };
    if duplicate {
        let key = key.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        return Err(HrdmError::KeyViolation {
            key: format!("({})", key.join(", ")),
        }
        .into());
    }
    Ok(true)
}

/// The decoded commit point of a checkpoint: catalog, policy, epoch, and
/// the partition manifest — everything a cold relation needs without
/// touching a single heap page.
struct CheckpointManifest {
    catalog: Catalog,
    policy: PartitionPolicy,
    epoch: u64,
    /// Relation → `[(partition id, tuple count, min_lo, max_hi)]`.
    relations: BTreeMap<String, Vec<(i64, u64, i64, i64)>>,
}

/// Reads and validates `catalog.hrdm` alone (header, CRC, manifest) —
/// `None` when no catalog exists yet.
fn read_catalog_manifest(dir: &Path) -> Result<Option<CheckpointManifest>, DbError> {
    // Every failure names the offending file: `BadFile` without a path
    // makes CI log triage on the recovery suite needlessly painful.
    let catalog_path = dir.join(CATALOG_FILE);
    let bytes = match std::fs::read(&catalog_path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_with_path(&catalog_path, e)),
    };
    if bytes.len() < 24 || &bytes[0..4] != MAGIC {
        return Err(DbError::BadFile(format!(
            "{}: missing HRDM magic",
            catalog_path.display()
        )));
    }
    let truncated = || DbError::BadFile(format!("{}: truncated header", catalog_path.display()));
    let version = le_u32_at(&bytes, 4).ok_or_else(truncated)?;
    if version != VERSION {
        return Err(DbError::BadFile(format!(
            "{}: unsupported version {version}",
            catalog_path.display()
        )));
    }
    let epoch = le_u64_at(&bytes, 8).ok_or_else(truncated)?;
    let len = le_u64_at(&bytes, 16).ok_or_else(truncated)? as usize;
    if bytes.len() < 24 + len + 4 {
        return Err(DbError::BadFile(format!(
            "{}: truncated catalog",
            catalog_path.display()
        )));
    }
    let payload = &bytes[24..24 + len];
    let stored_crc = le_u32_at(&bytes, 24 + len).ok_or_else(truncated)?;
    if crc32(payload) != stored_crc {
        return Err(DbError::BadFile(format!(
            "{}: catalog checksum mismatch",
            catalog_path.display()
        )));
    }
    let mut dec = Decoder::new(payload);
    let catalog = Catalog::decode(&mut dec)?;
    let policy = PartitionPolicy::decode(&mut dec)?;

    // Partition manifest: relation → [(id, tuple count, summary bounds)].
    // The summaries answer pruning for cold partitions without reading
    // heap files.
    let n_rels = dec.get_u64()? as usize;
    let mut manifest: BTreeMap<String, Vec<(i64, u64, i64, i64)>> = BTreeMap::new();
    for _ in 0..n_rels {
        let name = dec.get_str()?.to_string();
        let n_parts = dec.get_u64()? as usize;
        let mut parts = Vec::with_capacity(n_parts.min(4096));
        for _ in 0..n_parts {
            let id = dec.get_i64()?;
            let count = dec.get_u64()?;
            let (min_lo, max_hi) = (dec.get_i64()?, dec.get_i64()?);
            parts.push((id, count, min_lo, max_hi));
        }
        manifest.insert(name, parts);
    }
    Ok(Some(CheckpointManifest {
        catalog,
        policy,
        epoch,
        relations: manifest,
    }))
}

/// Reads the checkpoint `manifest` describes, validating the manifest
/// against its catalog. Every relation starts as a cold table over its
/// manifest entry, its heaps read through `pool`; each one `read_in_full`
/// names is read into memory ([`ImageRead::Full`]), every tuple
/// re-validated against its (possibly evolved) scheme. Every table starts
/// clean: it mirrors the heap files.
fn read_checkpoint(
    dir: &Path,
    manifest: CheckpointManifest,
    pool: &Arc<BufferPool>,
    read_in_full: impl Fn(&str) -> bool,
) -> Result<Database, DbError> {
    let catalog_path = dir.join(CATALOG_FILE);
    let CheckpointManifest {
        catalog,
        policy,
        epoch,
        relations: manifest,
    } = manifest;

    let mut tables = Tables::new();
    for name in catalog.relations() {
        let Some(scheme) = catalog.scheme(name).cloned() else {
            return Err(DbError::BadFile(format!(
                "{}: catalog is inconsistent about relation `{name}`",
                catalog_path.display()
            )));
        };
        let Some(parts) = manifest.get(name) else {
            return Err(DbError::BadFile(format!(
                "{}: relation `{name}` missing from the partition manifest",
                catalog_path.display()
            )));
        };
        let map = PartitionMap::from_manifest(policy, parts);
        let mut table = Table::cold(scheme, map, (dir, name, epoch), pool);
        if read_in_full(name) {
            table = Table::build(table.materialize(ImageRead::Full)?, policy);
        }
        table.partitions.mark_clean();
        tables.insert(name.into(), Arc::new(table));
    }
    Ok(Database {
        catalog: Arc::new(catalog),
        tables,
        attachment: None,
        ops_applied: 0,
        partition_policy: policy,
    })
}

/// What one read of a cold partition's heap did.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PartitionRead {
    /// Pages skipped without being pinned: their zone misses the window.
    pub pages_skipped: u64,
    /// Records visited, each at the cost of a lifespan probe or a decode:
    /// the records of every page the scan did not skip.
    pub scanned: u64,
    /// Records decoded: those whose lifespan met the window.
    pub decoded: u64,
    /// Did any decoded tuple have to be clipped to its scheme?
    pub clipped: bool,
}

/// Appends to `out`, in heap order, the tuples of checkpoint partition
/// `id` whose lifespan meets `window` (every tuple when `None`), each
/// conformed to `scheme` and restricted to `clip` when one is given
/// ([`decode_record`]). A record that misses the window is dropped after
/// its lifespan, its first field: only hits are decoded.
///
/// `zones` is the partition's per-page zone map, if it keeps one. Once it
/// is set, pages whose zone misses the window are skipped without being
/// pinned, and each page visited must hold the record count its zone
/// recorded. Otherwise the scan is a full pass: the heap must hold exactly
/// `count` records, the partition manifest's count, and the pass sets the
/// zone map. The eager loader keeps no zone map and passes no window: it
/// decodes every record without a probe.
pub(crate) fn read_partition(
    heap: &HeapFile,
    (id, count): (i64, u64),
    scheme: &Scheme,
    window: Option<&Lifespan>,
    clip: Option<&Lifespan>,
    zones: Option<&OnceLock<Arc<[PageZone]>>>,
    out: &mut Vec<Tuple>,
) -> Result<PartitionRead, DbError> {
    let mut read = PartitionRead::default();
    let known = zones.and_then(OnceLock::get);
    let pages = heap.page_count();
    if let Some(known) = known.filter(|known| known.len() != pages) {
        return Err(DbError::BadFile(format!(
            "{}: partition p{id} holds {pages} page(s), its zone map says {}",
            heap.path().display(),
            known.len()
        )));
    }
    let probe = window.is_some() || zones.is_some();
    let mut built: Vec<PageZone> = Vec::new();
    for page_no in (0u32..).take(pages) {
        let known_zone = known.map(|known| known[page_no as usize]);
        if known_zone
            .zip(window)
            .is_some_and(|(zone, w)| !zone.hull.meets(w))
        {
            read.pages_skipped += 1;
            continue;
        }
        let mut zone = PageZone::EMPTY;
        heap.scan_page(page_no, |record| {
            let meets = if probe {
                let probed = Decoder::new(record).lifespan_probe(window)?;
                zone.hull.widen(Hull {
                    lo: probed.first,
                    hi: probed.last,
                });
                probed.meets
            } else {
                true
            };
            zone.records += 1;
            if meets {
                let (tuple, clipped) =
                    decode_record(record, scheme, clip).map_err(|e| match e {
                        DbError::BadFile(what) => DbError::BadFile(format!(
                            "{}: partition p{id} page {page_no}: {what}",
                            heap.path().display()
                        )),
                        other => other,
                    })?;
                read.decoded += 1;
                read.clipped |= clipped;
                // A clip that keeps nothing of a tuple leaves no row.
                if clip.is_none() || !tuple.lifespan().is_empty() {
                    out.push(tuple);
                }
            }
            Ok::<(), DbError>(())
        })?;
        read.scanned += u64::from(zone.records);
        match known_zone {
            Some(known) if known.records != zone.records => {
                return Err(DbError::BadFile(format!(
                    "{}: partition p{id} page {page_no} holds {} record(s), its zone says {}",
                    heap.path().display(),
                    zone.records,
                    known.records
                )));
            }
            Some(_) => {}
            None => built.push(zone),
        }
    }
    if known.is_none() {
        if read.scanned != count {
            return Err(DbError::BadFile(format!(
                "{}: partition p{id} holds {} tuple(s), manifest says {count}",
                heap.path().display(),
                read.scanned
            )));
        }
        if let Some(zones) = zones {
            // A concurrent first scan may have set it already, to the
            // same zones: the heap is immutable.
            let _ = zones.set(built.into());
        }
    }
    Ok(read)
}

/// Decodes one heap record of a relation on `scheme`: its tuple conformed
/// to the scheme ([`conform_to_scheme`]) and restricted to `clip` when
/// one is given, plus whether conforming had to clip it. A restriction to
/// nothing has the empty lifespan. Bytes left after the tuple are a
/// [`DbError::BadFile`]: a heap record holds one tuple.
///
/// A record that validates as read in canonical form — every record a
/// checkpoint writes after the relation's last schema evolution — is
/// decoded clipped in one pass that builds only what the clip keeps
/// ([`Decoder::get_tuple_clipped`]). Any other record is decoded whole
/// ([`Decoder::get_tuple_in`]), conformed and then restricted
/// ([`Tuple::restrict`]), so every record yields exactly that value or
/// that error.
pub fn decode_record(
    record: &[u8],
    scheme: &Scheme,
    clip: Option<&Lifespan>,
) -> Result<(Tuple, bool), DbError> {
    let whole_record = |d: &Decoder<'_>| match d.remaining() {
        0 => Ok(()),
        n => Err(DbError::BadFile(format!(
            "a heap record holds {n} byte(s) past its tuple"
        ))),
    };
    let mut d = Decoder::new(record);
    if let Some(tuple) = clip.and_then(|c| d.get_tuple_clipped(scheme, c)) {
        whole_record(&d)?;
        return Ok((tuple, false));
    }
    let mut d = Decoder::new(record);
    let tuple = d.get_tuple_in(scheme)?;
    whole_record(&d)?;
    let (tuple, clipped) = conform_to_scheme(tuple, scheme)?;
    let tuple = match clip {
        Some(c) => tuple.restrict(c),
        None => tuple,
    };
    Ok((tuple, clipped))
}

/// Brings a tuple read from a checkpoint under the catalog's (possibly
/// evolved) scheme: values outside a since-shrunk ALS become invisible,
/// not invalid, so a tuple that fails validation only for that is clipped
/// and validated again. Returns the conforming tuple and whether it had
/// to be clipped. A tuple that validates as read — every tuple of a
/// checkpoint taken after the last evolution — is returned as is:
/// clipping to a lifespan that already contains a value is the identity.
pub fn conform_to_scheme(tuple: Tuple, scheme: &Scheme) -> Result<(Tuple, bool), DbError> {
    match tuple.validate(scheme) {
        Ok(()) => Ok((tuple, false)),
        Err(HrdmError::ValueOutsideLifespan { .. }) => {
            let clipped = tuple.clipped_to_scheme(scheme);
            clipped.validate(scheme).map_err(DbError::Model)?;
            Ok((clipped, true))
        }
        Err(e) => Err(DbError::Model(e)),
    }
}

/// Wraps an I/O error with the path it concerns, so a failed open, load,
/// save or checkpoint is triageable from the message alone.
pub(crate) fn io_with_path(path: &Path, e: io::Error) -> DbError {
    DbError::Io(crate::page::with_path(path, e))
}

/// Renames `from` to `to`, an error naming both.
fn rename(from: &Path, to: &Path) -> Result<(), DbError> {
    std::fs::rename(from, to).map_err(|e| {
        let what = format!("{} -> {}: {e}", from.display(), to.display());
        DbError::Io(io::Error::new(e.kind(), what))
    })
}

/// The WAL of checkpoint epoch `epoch`.
pub(crate) fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.{epoch}.log"))
}

/// A sibling temp path for atomic writes (`<file>.tmp`). Every caller
/// passes a real file path; a bare root degrades to a generic name.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("hrdm"));
    name.push(".tmp");
    path.with_file_name(name)
}

/// `u32::from_le_bytes` over `bytes[at..at + 4]`; `None` when short.
fn le_u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// `u64::from_le_bytes` over `bytes[at..at + 8]`; `None` when short.
fn le_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at + 8)?;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(b);
    Some(u64::from_le_bytes(arr))
}

/// Best-effort directory fsync, making renames durable (a no-op on
/// platforms where directories cannot be opened).
fn fsync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    if hrdm_obs::enabled() {
        crate::obs::storage_obs().dir_fsyncs.inc();
    }
}

fn same_dir(a: &Path, b: &Path) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => a == b,
    }
}

/// Removes *database* files from other epochs and leftover `.tmp`
/// siblings — debris of aborted checkpoints (before their commit point)
/// or of superseded epochs (after it). Only names matching the database's
/// own patterns (`wal.<epoch>.log`, `<name>.<epoch>.heap`,
/// `<name>.<epoch>.p<id>.heap`, `<name>.<epoch>.btx`, their `.tmp`
/// siblings, `catalog.hrdm.tmp`) are ever touched: a user file like `build.log`
/// sitting in the directory is not ours to delete. Best effort: failures
/// leave garbage, never break the database.
///
/// The keep test is by epoch, not by an explicit file list: every file of
/// the current epoch stays (the catalog manifest, not memory, is the
/// authority on which of them the next open will read).
fn cleanup_stray_files(dir: &Path, epoch: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let is_tmp = name.ends_with(".tmp");
        let base = name.strip_suffix(".tmp").unwrap_or(name);
        let sweep = match classify_database_file(base) {
            Some(DbFileKind::Catalog) => is_tmp,
            Some(DbFileKind::Epochal(e)) => is_tmp || e != epoch,
            None => false,
        };
        if sweep {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A file name this module itself writes, minus any `.tmp` suffix.
enum DbFileKind {
    /// The catalog commit point (`catalog.hrdm`).
    Catalog,
    /// A per-epoch file (WAL or heap) carrying this epoch stamp.
    Epochal(u64),
}

/// Classifies `base` against the database's own file patterns; `None` for
/// anything foreign (never ours to delete).
fn classify_database_file(base: &str) -> Option<DbFileKind> {
    if base == CATALOG_FILE {
        return Some(DbFileKind::Catalog);
    }
    let epoch_of = |s: &str| -> Option<u64> {
        (!s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
            .then(|| s.parse().ok())
            .flatten()
    };
    if let Some(rest) = base
        .strip_prefix("wal.")
        .and_then(|r| r.strip_suffix(".log"))
    {
        return epoch_of(rest).map(DbFileKind::Epochal);
    }
    if let Some(rest) = base.strip_suffix(".heap") {
        // `<escaped-name>.<epoch>.p<id>` (current layout) or
        // `<escaped-name>.<epoch>` (pre-partition layout, still swept as
        // debris) — the escaped name never contains `.`.
        let (head, tail) = rest.rsplit_once('.')?;
        if let Some(id) = tail.strip_prefix('p') {
            if id.parse::<i64>().is_ok() {
                let (_, e) = head.rsplit_once('.')?;
                return epoch_of(e).map(DbFileKind::Epochal);
            }
        }
        return epoch_of(tail).map(DbFileKind::Epochal);
    }
    if let Some(rest) = base.strip_suffix(".btx") {
        // `<escaped-name>.<epoch>` — the relation's on-disk B+tree.
        let (_, e) = rest.rsplit_once('.')?;
        return epoch_of(e).map(DbFileKind::Epochal);
    }
    None
}

/// Hard-links a clean partition's heap file from the previous epoch into
/// the new one (falling back to a durable byte copy on filesystems
/// without hard links). Returns `false` when neither works — the caller
/// writes fresh.
///
/// A hard link shares the already-fsync'd inode, so it needs no data
/// sync of its own (the later directory fsync covers the new name). The
/// copy fallback must be as durable as the fresh-write path: copy to a
/// tmp sibling, fsync, rename — otherwise the checkpoint could commit a
/// catalog referencing bytes still sitting in the page cache.
fn link_partition_file(old: &Path, new: &Path) -> bool {
    if !old.exists() {
        return false;
    }
    // A leftover from an aborted earlier checkpoint would make the link
    // fail with AlreadyExists; it is pre-commit debris, safe to replace.
    let _ = std::fs::remove_file(new);
    if std::fs::hard_link(old, new).is_ok() {
        return true;
    }
    let tmp = tmp_sibling(new);
    let copied = std::fs::copy(old, &tmp).is_ok()
        && std::fs::File::open(&tmp).is_ok_and(|f| f.sync_all().is_ok())
        && std::fs::rename(&tmp, new).is_ok();
    if !copied {
        let _ = std::fs::remove_file(&tmp);
    }
    copied
}

/// Escapes a caller-controlled relation name **injectively** into a tame
/// file name: alphanumerics pass through, `_` doubles to `__`, and any
/// other character becomes `_<hex>_`. Distinct relation names can
/// therefore never collide on one file (`"emp dept"` → `emp_20_dept`,
/// `"emp_dept"` → `emp__dept`).
fn escape_relation_name(relation: &str) -> String {
    let mut safe = String::with_capacity(relation.len());
    for c in relation.chars() {
        if c.is_ascii_alphanumeric() {
            safe.push(c);
        } else if c == '_' {
            safe.push_str("__");
        } else {
            use std::fmt::Write;
            let _ = write!(safe, "_{:x}_", c as u32);
        }
    }
    safe
}

/// The heap file of `relation`'s partition `part` under checkpoint
/// `epoch`: `<escaped-name>.<epoch>.p<id>.heap`.
pub(crate) fn partition_heap_path(dir: &Path, relation: &str, epoch: u64, part: i64) -> PathBuf {
    dir.join(format!(
        "{}.{epoch}.p{part}.heap",
        escape_relation_name(relation)
    ))
}

/// The on-disk B+tree of `relation` under checkpoint `epoch`:
/// `<escaped-name>.<epoch>.btx`.
pub(crate) fn btree_path(dir: &Path, relation: &str, epoch: u64) -> PathBuf {
    dir.join(format!("{}.{epoch}.btx", escape_relation_name(relation)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{HistoricalDomain, TemporalValue, Value, ValueKind};
    use hrdm_time::Lifespan;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-db-{}-{name}", std::process::id()));
        p
    }

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "SALARY",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap()
    }

    fn emp(name: &str, lo: i64, hi: i64, salary: i64) -> Tuple {
        let life = Lifespan::interval(lo, hi);
        Tuple::builder(life.clone())
            .constant("NAME", name)
            .value("SALARY", TemporalValue::constant(&life, Value::Int(salary)))
            .finish(&emp_scheme())
            .unwrap()
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp("roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        db.insert("emp", emp("Mary", 5, 30, 30_000)).unwrap();
        db.save(&dir).unwrap();

        let back = Database::load(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap(), db.relation("emp").unwrap());
        assert_eq!(back.catalog().log().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    /// The cold-scan kernel over a heap written in insertion order, as
    /// checkpoints before birth-ordered writes left them: every page's zone
    /// is wide, and zone-filtered scans still answer exactly what a full
    /// decode filtered by the window does. A page whose record count
    /// differs from its zone fails the scan, naming the heap.
    #[test]
    fn zone_filtered_scan_of_an_insertion_ordered_heap() {
        let era = Lifespan::interval(0, 10_000);
        let scheme = Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap();
        let path = tmp("zones.heap");
        let mut writer = PageWriter::create(&path).unwrap();
        let n = 1_500u64;
        for k in 0..n as i64 {
            // Births jump about: insertion order is not birth order.
            let lo = (k * 7_919) % 9_000;
            let life = Lifespan::interval(lo, lo + 10 + k % 40);
            let t = Tuple::builder(life.clone())
                .constant("K", k)
                .value("V", TemporalValue::constant(&life, Value::Int(k)))
                .finish(&scheme)
                .unwrap();
            let mut e = Encoder::new();
            e.put_tuple(&t);
            writer.push(&e.finish()).unwrap();
        }
        writer.finish().unwrap();
        let heap = HeapFile::open_in(&path, crate::pool::BufferPool::new(4)).unwrap();
        let read = |window: Option<&Lifespan>, zones: Option<&OnceLock<Arc<[PageZone]>>>| {
            let mut out = Vec::new();
            read_partition(&heap, (0, n), &scheme, window, None, zones, &mut out)
                .map(|r| (out, r.scanned))
        };
        let (all, _) = read(None, None).unwrap();
        assert_eq!(all.len() as u64, n);

        // The first window is the full pass that sets the zone map.
        let zones = OnceLock::new();
        let windows = [
            Lifespan::interval(100, 150),
            Lifespan::interval(4_000, 4_000),
            Lifespan::of(&[(0, 5), (8_990, 9_100)]),
            Lifespan::interval(20_000, 20_100),
        ];
        for w in &windows {
            let want: Vec<Tuple> = all
                .iter()
                .filter(|t| t.lifespan().intersects(w))
                .cloned()
                .collect();
            assert_eq!(read(Some(w), Some(&zones)).unwrap().0, want, "{w}");
        }
        let map = zones.get().expect("the full pass sets the zone map");
        assert_eq!(map.len(), heap.page_count());
        assert!(map.len() > 3, "need several pages, got {}", map.len());
        assert_eq!(read(None, Some(&zones)).unwrap().0, all);
        let (past, scanned) = read(Some(&windows[3]), Some(&zones)).unwrap();
        assert!(past.is_empty());
        assert_eq!(scanned, 0, "a window past every zone pins no page");

        let w = &windows[0];
        let page = map.iter().position(|z| z.hull.meets(w)).unwrap();
        let mut wrong = map.to_vec();
        wrong[page].records += 1;
        let wrong = OnceLock::from(Arc::from(wrong));
        let Err(err) = read(Some(w), Some(&wrong)) else {
            panic!("a page holding fewer records than its zone scanned cleanly");
        };
        let err = err.to_string();
        assert!(
            err.contains(&path.display().to_string()) && err.contains("zone"),
            "{err}"
        );
        drop(heap);
        std::fs::remove_file(&path).ok();
    }

    /// A heap record holds one tuple: a record with bytes after it fails
    /// every read of its page — whole, windowed, or clipped — naming the
    /// heap and the page, while its well-formed neighbour decodes.
    #[test]
    fn trailing_bytes_in_a_heap_record_are_an_error() {
        let era = Lifespan::interval(0, 100);
        let scheme = Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap();
        let record = |k: i64| {
            let life = Lifespan::interval(k, k + 10);
            let t = Tuple::builder(life.clone())
                .constant("K", k)
                .value("V", TemporalValue::constant(&life, Value::Int(k)))
                .finish(&scheme)
                .unwrap();
            let mut e = Encoder::new();
            e.put_tuple(&t);
            e.finish()
        };
        let path = tmp("trailing.heap");
        let mut writer = PageWriter::create(&path).unwrap();
        writer.push(&record(1)).unwrap();
        let mut padded = record(50);
        padded.push(0);
        writer.push(&padded).unwrap();
        writer.finish().unwrap();
        let heap = HeapFile::open_in(&path, crate::pool::BufferPool::new(4)).unwrap();
        let read = |window: Option<&Lifespan>, clip: Option<&Lifespan>| {
            let mut out = Vec::new();
            read_partition(&heap, (0, 2), &scheme, window, clip, None, &mut out).map(|_| out)
        };
        let clean = Lifespan::interval(0, 20);
        assert_eq!(read(Some(&clean), Some(&clean)).unwrap().len(), 1);
        let meets = Lifespan::interval(40, 55);
        for (window, clip) in [
            (None, None),
            (Some(&meets), None),
            (Some(&meets), Some(&meets)),
        ] {
            let Err(DbError::BadFile(err)) = read(window, clip) else {
                panic!("a record with a trailing byte decoded ({window:?}, {clip:?})");
            };
            assert!(
                err.contains(&path.display().to_string())
                    && err.contains("page 0")
                    && err.contains("1 byte(s) past its tuple"),
                "{err}"
            );
        }
        drop(heap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_constraint_enforced_through_db() {
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        assert!(matches!(
            db.insert("emp", emp("John", 30, 40, 9)),
            Err(DbError::Model(HrdmError::KeyViolation { .. }))
        ));
        assert!(matches!(
            db.insert("nope", emp("X", 0, 1, 1)),
            Err(DbError::Model(HrdmError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn corrupted_catalog_detected() {
        let dir = tmp("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.save(&dir).unwrap();
        let path = dir.join("catalog.hrdm");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 6;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Database::load(&dir),
            Err(DbError::BadFile(_)) | Err(DbError::Codec(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    /// A catalog cut short anywhere must be rejected as `BadFile`, never
    /// silently half-loaded (the old `fs::write` save path could leave
    /// such a file after a crash; the atomic rename makes it unreachable,
    /// but load still defends against it).
    #[test]
    fn truncated_catalog_rejected_at_every_length() {
        let dir = tmp("truncated-catalog");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.save(&dir).unwrap();
        let path = dir.join("catalog.hrdm");
        let full = std::fs::read(&path).unwrap();
        for cut in [1, 4, 8, 16, 23, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(Database::load(&dir), Err(DbError::BadFile(_))),
                "cut at {cut} must be BadFile"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn schema_evolution_persists() {
        let dir = tmp("evolve");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.drop_attribute("emp", &"SALARY".into(), hrdm_time::Chronon::new(50))
            .unwrap();
        db.save(&dir).unwrap();
        let back = Database::load(&dir).unwrap();
        let als = back
            .catalog()
            .scheme("emp")
            .unwrap()
            .als(&"SALARY".into())
            .unwrap()
            .clone();
        assert_eq!(als, Lifespan::interval(0, 49));
        assert_eq!(back.catalog().log().len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn indexes_track_mutations_and_survive_load() {
        let dir = tmp("indexes");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        // Fresh relation: the access paths exist (empty).
        assert_eq!(db.key_index("emp").unwrap().distinct_keys(), 0);
        assert_eq!(db.partitions("emp").unwrap().tuple_count(), 0);

        // Insert maintains the indexes incrementally — no invalidation.
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        let window = Lifespan::interval(5, 5);
        let parts = db.partitions("emp").expect("insert keeps the map valid");
        assert_eq!(parts.tuple_count(), 1);
        assert_eq!(parts.prune_positions(&window), vec![0]);

        // put_relation rebuilds eagerly.
        let rel = db.relation("emp").unwrap().clone();
        db.put_relation("emp", rel).unwrap();
        assert_eq!(db.partitions("emp").unwrap().tuple_count(), 1);

        // A loaded database has access paths for every relation, rebuilt
        // from the heap files.
        db.insert("emp", emp("Mary", 5, 30, 30_000)).unwrap();
        db.save(&dir).unwrap();
        let back = Database::load(&dir).unwrap();
        assert_eq!(back.partitions("emp").unwrap().tuple_count(), 2);
        let key = back.key_index("emp").expect("keyed scheme has a key index");
        let pos = key.lookup(&[hrdm_core::Value::str("Mary")]);
        assert_eq!(pos.len(), 1);
        assert_eq!(
            back.relation("emp")
                .unwrap()
                .tuple_at(pos[0])
                .unwrap()
                .lifespan(),
            &Lifespan::interval(5, 30)
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_relation_has_no_indexes() {
        let db = Database::new();
        assert!(db.key_index("ghost").is_none() && db.partitions("ghost").is_none());
    }

    #[test]
    fn missing_magic_rejected() {
        let dir = tmp("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("catalog.hrdm"), b"not a database").unwrap();
        assert!(matches!(Database::load(&dir), Err(DbError::BadFile(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    /// The heap-path escaping is injective: `"emp dept"` and `"emp_dept"`
    /// used to collide on `emp_dept.heap`, one silently overwriting the
    /// other on save.
    #[test]
    fn similar_relation_names_do_not_collide_on_disk() {
        assert_ne!(
            partition_heap_path(Path::new("/d"), "emp dept", 0, 0),
            partition_heap_path(Path::new("/d"), "emp_dept", 0, 0)
        );
        assert_ne!(
            partition_heap_path(Path::new("/d"), "a_b", 0, 0),
            partition_heap_path(Path::new("/d"), "a__b", 0, 0)
        );

        let dir = tmp("collide");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::new();
        db.create_relation("emp dept", emp_scheme()).unwrap();
        db.create_relation("emp_dept", emp_scheme()).unwrap();
        db.insert("emp dept", emp("Spaced", 0, 10, 1)).unwrap();
        db.insert("emp_dept", emp("Scored", 0, 10, 2)).unwrap();
        db.save(&dir).unwrap();
        let back = Database::load(&dir).unwrap();
        assert_eq!(back.relation("emp dept").unwrap().len(), 1);
        assert_eq!(back.relation("emp_dept").unwrap().len(), 1);
        assert_eq!(
            back.relation("emp dept").unwrap().tuples()[0]
                .key_values(&emp_scheme())
                .unwrap(),
            vec![Value::str("Spaced")]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_insert_reopen_recovers_from_wal_alone() {
        let dir = tmp("wal-recover");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_relation("emp", emp_scheme()).unwrap();
            db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
            // No checkpoint, no save: the database is dropped ("killed").
        }
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap().len(), 1);
        assert!(back.is_attached());
        assert_eq!(back.epoch(), Some(0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_rotates_epoch_and_truncates_wal() {
        let dir = tmp("checkpoint");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), Some(1));
        assert!(wal_path(&dir, 1).exists());
        assert_eq!(std::fs::metadata(wal_path(&dir, 1)).unwrap().len(), 0);
        assert!(!wal_path(&dir, 0).exists(), "old epoch's WAL is cleaned");

        db.insert("emp", emp("Mary", 5, 30, 30_000)).unwrap();
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap().len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    /// The stray-file sweep touches only the database's own file
    /// patterns: a user's `build.log` / `notes.tmp` / `data.heap` in the
    /// same directory must survive open, checkpoint, and save.
    #[test]
    fn cleanup_never_deletes_unrelated_user_files() {
        let dir = tmp("user-files");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for f in ["build.log", "notes.tmp", "data.heap", "wal.bak.log"] {
            std::fs::write(dir.join(f), b"precious").unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let _ = Database::open(&dir).unwrap();
        for f in ["build.log", "notes.tmp", "data.heap", "wal.bak.log"] {
            assert!(dir.join(f).exists(), "{f} was deleted");
        }
        // While actual debris is swept (checkpoint moved us to epoch 1).
        assert!(!dir.join("wal.0.log").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    /// A never-checkpointed attached directory (WAL only, no catalog) is
    /// loadable read-only, recovering the same state `open` recovers.
    #[test]
    fn load_reads_wal_only_directory() {
        let dir = tmp("load-wal-only");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_relation("emp", emp_scheme()).unwrap();
            db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        }
        assert!(!dir.join(CATALOG_FILE).exists());
        let back = Database::load(&dir).unwrap();
        assert!(!back.is_attached());
        assert_eq!(back.relation("emp").unwrap().len(), 1);

        // An empty directory is still not a database.
        let empty = tmp("load-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(Database::load(&empty).is_err());
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }

    /// Contents whose scheme differs from the catalog's are rejected up
    /// front: accepting them would poison the next checkpoint (heap
    /// tuples that fail re-validation against the catalog scheme on
    /// open — a permanently unopenable database).
    #[test]
    fn put_relation_with_divergent_scheme_rejected() {
        let dir = tmp("put-mismatch");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", emp_scheme()).unwrap();
        let wider = Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "SALARY",
                HistoricalDomain::int(),
                Lifespan::interval(0, 100),
            )
            .attr("BONUS", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .build()
            .unwrap();
        assert!(matches!(
            db.put_relation("emp", Relation::new(wider)),
            Err(DbError::SchemeMismatch { .. })
        ));
        // Matching contents go through, and the database survives the
        // checkpoint + open round trip.
        let life = Lifespan::interval(0, 10);
        let t = Tuple::builder(life.clone())
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::constant(&life, Value::Int(7)))
            .finish(&emp_scheme())
            .unwrap();
        db.put_relation("emp", Relation::with_tuples(emp_scheme(), vec![t]).unwrap())
            .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn save_into_attached_dir_refused() {
        let dir = tmp("save-attached");
        std::fs::remove_dir_all(&dir).ok();
        let db = Database::open(&dir).unwrap();
        assert!(matches!(db.save(&dir), Err(DbError::Mode(_))));
        let other = tmp("save-attached-other");
        std::fs::remove_dir_all(&other).ok();
        db.save(&other).unwrap(); // exporting elsewhere is fine
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(other).ok();
    }

    #[test]
    fn checkpoint_requires_attachment() {
        let mut db = Database::new();
        assert!(matches!(db.checkpoint(), Err(DbError::Mode(_))));
    }

    #[test]
    fn empty_commit_batch_returns_no_results() {
        let mut db = Database::new();
        assert!(db.commit_batch(Vec::new()).is_empty());
    }

    /// The batch-undo machinery restores exactly the pre-batch state, for
    /// insert-only and catalog-changing batches alike, from the pinned
    /// pre-batch tables. This is the path a failed batch fsync takes — a
    /// write that returned `Err` must never become visible.
    #[test]
    fn rollback_restores_pre_batch_state() {
        let mut db = Database::new();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        let version_before = db.version();

        let batch = vec![
            WalRecord::Insert {
                relation: "emp".into(),
                tuple: emp("Mary", 5, 30, 30_000),
            },
            WalRecord::Insert {
                relation: "emp".into(),
                tuple: emp("Igor", 8, 25, 27_000),
            },
        ];
        let undo = db.undo_point();
        for r in db.commit_batch(batch) {
            r.unwrap();
        }
        assert_eq!(db.relation("emp").unwrap().len(), 3);
        db.rollback(undo);
        assert_eq!(db.relation("emp").unwrap().len(), 1);
        assert_eq!(db.version(), version_before);
        let key = db.key_index("emp").unwrap();
        assert!(key.lookup(&[Value::str("Mary")]).is_empty());
        assert_eq!(key.lookup(&[Value::str("John")]).len(), 1);
        assert_eq!(db.partitions("emp").unwrap().tuple_count(), 1);
        // The undone inserts are gone for good: their keys are free again.
        db.insert("emp", emp("Mary", 5, 30, 31_000)).unwrap();
        assert_eq!(db.relation("emp").unwrap().len(), 2);
        let version_before = db.version();

        let batch = vec![WalRecord::DropAttribute {
            relation: "emp".into(),
            attribute: "SALARY".into(),
            at: Chronon::new(50),
        }];
        let undo = db.undo_point();
        for r in db.commit_batch(batch) {
            r.unwrap();
        }
        assert_eq!(
            db.catalog()
                .scheme("emp")
                .unwrap()
                .als(&"SALARY".into())
                .unwrap(),
            &Lifespan::interval(0, 49)
        );
        db.rollback(undo);
        assert_eq!(
            db.catalog()
                .scheme("emp")
                .unwrap()
                .als(&"SALARY".into())
                .unwrap(),
            &Lifespan::interval(0, 100)
        );
        assert_eq!(db.version(), version_before);
    }

    /// A failed append must not leave the failed batch's frames on disk:
    /// `Wal::rollback_to` cuts the log back so a crash-reopen cannot
    /// resurrect writes whose submitters got `Err`.
    #[test]
    fn wal_rollback_to_discards_appended_frames() {
        let dir = tmp("wal-rollback");
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::open(&dir).unwrap();
        db.create_relation("emp", emp_scheme()).unwrap();
        db.insert("emp", emp("John", 0, 20, 25_000)).unwrap();
        let att = db.attachment.as_mut().expect("attached");
        let offset = att.wal.offset().unwrap();
        // Simulate a batch whose fsync "failed" after the frames landed.
        att.wal
            .append_batch(&[WalRecord::Insert {
                relation: "emp".into(),
                tuple: emp("Mary", 5, 30, 30_000),
            }
            .payload()])
            .unwrap();
        att.wal.rollback_to(offset).unwrap();
        drop(db);
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap().len(), 1, "cut write is gone");
        // And the log is healthy for further appends.
        let mut back = back;
        back.insert("emp", emp("Igor", 8, 25, 27_000)).unwrap();
        let again = Database::load(&dir).unwrap();
        assert_eq!(again.relation("emp").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The brick scenario: evolution must resync the live relation's
    /// scheme, so post-evolution inserts are validated against the same
    /// scheme recovery will use. Otherwise an insert accepted under a
    /// stale scheme is acknowledged, fsync'd — and then fails WAL replay,
    /// leaving the database permanently unopenable.
    #[test]
    fn evolution_resyncs_live_scheme_so_recovery_never_bricks() {
        let dir = tmp("evolve-sync");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_relation("emp", emp_scheme()).unwrap();
            db.insert("emp", emp("John", 0, 80, 25_000)).unwrap();
            db.drop_attribute("emp", &"SALARY".into(), Chronon::new(50))
                .unwrap();
            // The live relation carries the evolved scheme, its stored
            // values clipped to the shrunk ALS.
            let rel = db.relation("emp").unwrap();
            assert_eq!(
                rel.scheme().als(&"SALARY".into()).unwrap(),
                &Lifespan::interval(0, 49)
            );
            db.checkpoint().unwrap();

            // An insert whose SALARY strays past the evolved ALS is
            // rejected up front — not acknowledged and lost at replay.
            assert!(matches!(
                db.insert("emp", emp("Mary", 0, 80, 30_000)),
                Err(DbError::Model(HrdmError::ValueOutsideLifespan { .. }))
            ));
            // A conforming insert (built against the evolved scheme) is
            // accepted and fsync'd.
            let evolved = db.catalog().scheme("emp").unwrap().clone();
            let life = Lifespan::interval(0, 80);
            let mary = Tuple::builder(life)
                .constant("NAME", "Mary")
                .value(
                    "SALARY",
                    TemporalValue::constant(&Lifespan::interval(0, 40), Value::Int(30_000)),
                )
                .finish(&evolved)
                .unwrap();
            db.insert("emp", mary).unwrap();
            // Kill without checkpoint.
        }
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("emp").unwrap().len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A tuple read back under an unchanged scheme passes through as is;
    /// one whose values stray past a since-shrunk ALS is clipped to it
    /// (and reported, so the loader knows to deduplicate); anything else
    /// wrong with it is an error, as before.
    #[test]
    fn conform_clips_only_what_a_shrunk_als_requires() {
        let t = emp("John", 0, 80, 25_000);
        let (same, clipped) = conform_to_scheme(t.clone(), &emp_scheme()).unwrap();
        assert!(!clipped);
        assert_eq!(same, t);

        let mut catalog = Catalog::default();
        catalog.create_relation("emp", emp_scheme()).unwrap();
        catalog
            .drop_attribute("emp", &"SALARY".into(), Chronon::new(50))
            .unwrap();
        let shrunk = catalog.scheme("emp").unwrap().clone();
        let (conformed, clipped) = conform_to_scheme(t.clone(), &shrunk).unwrap();
        assert!(clipped);
        assert_eq!(conformed, t.clipped_to_scheme(&shrunk));
        conformed.validate(&shrunk).unwrap();

        let alien = Scheme::builder()
            .key_attr("NAME", ValueKind::Str, Lifespan::interval(0, 100))
            .attr(
                "SALARY",
                HistoricalDomain::string(),
                Lifespan::interval(0, 100),
            )
            .build()
            .unwrap();
        assert!(matches!(
            conform_to_scheme(t, &alien),
            Err(DbError::Model(HrdmError::DomainMismatch { .. }))
        ));
    }

    #[test]
    fn durable_evolution_replays() {
        let dir = tmp("evolve-wal");
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_relation("emp", emp_scheme()).unwrap();
            db.add_attribute(
                "emp",
                Attribute::new("DEPT"),
                HistoricalDomain::string(),
                Chronon::new(0),
                Chronon::new(100),
            )
            .unwrap();
            db.drop_attribute("emp", &Attribute::new("DEPT"), Chronon::new(40))
                .unwrap();
            db.re_add_attribute(
                "emp",
                &Attribute::new("DEPT"),
                Chronon::new(60),
                Chronon::new(90),
            )
            .unwrap();
        }
        let back = Database::open(&dir).unwrap();
        let als = back
            .catalog()
            .scheme("emp")
            .unwrap()
            .als(&Attribute::new("DEPT"))
            .unwrap()
            .clone();
        assert_eq!(als, Lifespan::of(&[(0, 39), (60, 90)]));
        assert_eq!(back.catalog().log().len(), 4);
        std::fs::remove_dir_all(dir).ok();
    }
}

//! A thread-safe database front-end: snapshot-isolated readers and a
//! group-commit writer.
//!
//! ## Concurrency model
//!
//! * **Readers** call [`ConcurrentDatabase::snapshot`] and get an
//!   `Arc<DbSnapshot>` — the committed state at one commit point, sharing
//!   the database's per-relation tables. Taking a snapshot is one brief
//!   read-lock on the published pointer; everything after (whole
//!   `hrdm-query` pipelines: optimize → plan → evaluate) runs with **zero
//!   locks**, and scales with reader threads.
//! * **Writers** call the usual write methods ([`ConcurrentDatabase::insert`],
//!   …). Each write is enqueued; one writer at a time becomes the **leader**,
//!   drains everything queued (its own op plus whatever arrived while the
//!   previous leader was fsyncing), validates and applies the ops in order,
//!   and commits them as a single WAL batch frame with **one fsync**
//!   ([`crate::Wal::append_batch`]). The leader then publishes the next
//!   snapshot atomically and wakes every waiter with its own result. Under
//!   contention, `k` concurrent writers pay ~1 fsync instead of `k` — the
//!   classical group commit.
//!
//! ## Sharing and copy-on-write
//!
//! Every commit batch ends in a publish, so the *next* batch always finds
//! the state it is about to change shared with the snapshot just
//! published. That costs it O(batch · log n), not O(n): the tuple vector,
//! key index and partition map are structure-shared (see [`Database`]),
//! so an insert copies a 64-slot vector tail, one small hash-map tier and
//! the one partition it lands in (with its short pending block), and
//! publishing bumps one reference count per relation. The amortizing
//! index merges that pay for this show up as
//! `hrdm_storage_index_folds_total` / `hrdm_storage_index_fold_ns` next to
//! `hrdm_snapshot_publish_total`.
//!
//! ## Guarantees
//!
//! * **Snapshot isolation for readers**: a snapshot never changes, no
//!   matter what writers, `checkpoint()`, or WAL rotation do afterwards.
//! * **Prefix consistency**: snapshots are published only after the whole
//!   batch is fsync'd, so every observable state is the result of a prefix
//!   of the commit order — never a subset with holes. Crash recovery gives
//!   the same guarantee on disk (see the WAL module docs).
//! * **No acknowledged write is lost**: a write's `Ok` is returned only
//!   after its batch's fsync, identical to the single-threaded durability
//!   contract of [`Database`].

use crate::database::{Database, DbError};
use crate::snapshot::DbSnapshot;
use crate::wal::WalRecord;
use hrdm_core::{Attribute, HistoricalDomain, Relation, Scheme, Tuple};
use hrdm_time::Chronon;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// One queued write: the operation *group* (one or more ops committed in
/// the same batch, with no snapshot published between them) plus the
/// ticket its submitter waits on.
struct Pending {
    ops: Vec<WalRecord>,
    ticket: Arc<Ticket>,
}

/// A one-shot completion slot a waiting writer parks on. Carries one
/// result per op of the submitter's group.
struct Ticket {
    done: Mutex<Option<Vec<Result<(), DbError>>>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, results: Vec<Result<(), DbError>>) {
        let mut slot = self.done.lock().expect("ticket lock");
        *slot = Some(results);
        self.cv.notify_all();
    }

    /// Takes the results if they are already there.
    fn try_take(&self) -> Option<Vec<Result<(), DbError>>> {
        self.done.lock().expect("ticket lock").take()
    }

    /// Waits up to `timeout` for the results. `None` on timeout — the
    /// caller re-checks for leadership (covers the rare race where a
    /// stepping-down leader missed an op enqueued after its last drain).
    fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Vec<Result<(), DbError>>> {
        let mut slot = self.done.lock().expect("ticket lock");
        if let Some(results) = slot.take() {
            return Some(results);
        }
        let (mut slot, _timed_out) = self
            .cv
            .wait_timeout(slot, timeout)
            .expect("ticket wait_timeout");
        slot.take()
    }
}

/// Counters describing the group-commit writer's behaviour (all monotone).
/// Only **acknowledged** operations count — validation failures and
/// batches whose fsync failed (nothing acknowledged) are excluded, so
/// [`CommitStats::mean_batch`] really is the amortization factor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Commit rounds that acknowledged at least one op (≈ fsyncs on an
    /// attached database; a round of only set-semantics no-ops
    /// acknowledges without needing an fsync).
    pub batches: u64,
    /// Acknowledged operations across all batches.
    pub ops: u64,
    /// The most ops one batch has acknowledged so far.
    pub max_batch: usize,
    /// Ops acknowledged by the most recent counted batch.
    pub last_batch: usize,
}

impl CommitStats {
    /// Mean ops per batch — the fsync amortization factor.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// The per-instance commit cells, delegated to `hrdm-obs` primitives —
/// the same atomics back `\stats` (exact per-database values; the tests
/// assert exact op counts) and any registry these cells are exposed
/// through, so there is exactly one source of truth. Engine-wide
/// aggregates (the batch-size histogram) go to the global registry in
/// [`ConcurrentDatabase::commit_and_fulfill`] instead, because several
/// databases can live in one process.
#[derive(Default)]
struct StatsCells {
    batches: hrdm_obs::Counter,
    ops: hrdm_obs::Counter,
    /// High-water mark, maintained with `fetch_max`.
    max_batch: hrdm_obs::Counter,
    /// Last-value cell, overwritten per batch.
    last_batch: hrdm_obs::Counter,
}

/// A [`Database`] shared across threads: lock-free snapshot readers, a
/// leader/follower group-commit writer. See the module docs for the model.
pub struct ConcurrentDatabase {
    /// The writer's working state. Holding this lock is what makes a
    /// writer the leader; it is held across validate + apply + fsync +
    /// publish, never by readers.
    inner: Mutex<Database>,
    /// The last published snapshot. Readers briefly read-lock to clone the
    /// `Arc`; the leader write-locks to swap in the next state.
    published: RwLock<Arc<DbSnapshot>>,
    /// Writes waiting to be drained into the next commit batch.
    queue: Mutex<VecDeque<Pending>>,
    stats: StatsCells,
}

impl ConcurrentDatabase {
    /// An empty, detached concurrent database (no directory, no WAL —
    /// group application without durability).
    pub fn new() -> ConcurrentDatabase {
        ConcurrentDatabase::from_database(Database::new())
    }

    /// Wraps an existing database (attached or detached).
    pub fn from_database(db: Database) -> ConcurrentDatabase {
        let snapshot = Arc::new(db.snapshot());
        ConcurrentDatabase {
            inner: Mutex::new(db),
            published: RwLock::new(snapshot),
            queue: Mutex::new(VecDeque::new()),
            stats: StatsCells::default(),
        }
    }

    /// Attaches to `dir` durably — [`Database::open`] wrapped for
    /// concurrent use.
    pub fn open(dir: &Path) -> Result<ConcurrentDatabase, DbError> {
        Ok(ConcurrentDatabase::from_database(Database::open(dir)?))
    }

    /// The current committed snapshot. One brief read-lock; after that the
    /// caller holds an immutable state no writer can disturb.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        Arc::clone(&self.published.read().expect("published lock"))
    }

    /// Group-commit write: enqueue, then either **lead** (commit every
    /// queued op, own included, as one fsync'd batch) or **follow** (park
    /// on the ticket until a leader's batch carries the op through).
    ///
    /// Followers never touch the database lock — that is what lets batches
    /// form: while the current leader is inside its fsync, arriving
    /// writers enqueue and park, and the leader's next drain commits them
    /// all at once. The short follower timeout covers the one race where
    /// a stepping-down leader missed an op enqueued after its final
    /// drain; the timed-out follower simply re-contends for leadership.
    pub fn write(&self, op: WalRecord) -> Result<(), DbError> {
        self.write_group(vec![op])
            .into_iter()
            .next()
            .unwrap_or_else(|| {
                Err(DbError::Mode(
                    "internal: write_group returned no result for a one-op group".into(),
                ))
            })
    }

    /// Group-commit write of several ops as one **atomic group**: the ops
    /// land in the same commit batch in order, with no snapshot published
    /// between them — readers either see none of the group or all of its
    /// acknowledged ops. Returns one result per op (an op can fail
    /// validation individually, e.g. a key conflict, without taking the
    /// rest of the group down).
    pub fn write_group(&self, ops: Vec<WalRecord>) -> Vec<Result<(), DbError>> {
        if ops.is_empty() {
            return Vec::new();
        }
        let ticket = Arc::new(Ticket::new());
        self.queue.lock().expect("queue lock").push_back(Pending {
            ops,
            ticket: Arc::clone(&ticket),
        });
        loop {
            // A previous leader may already have carried our ops through.
            if let Some(results) = ticket.try_take() {
                return results;
            }
            match self.inner.try_lock() {
                Ok(mut db) => {
                    // Leader: drain-and-commit until the queue stays empty,
                    // so no follower that parked while we held the lock is
                    // left stranded.
                    loop {
                        let batch: Vec<Pending> = {
                            let mut queue = self.queue.lock().expect("queue lock");
                            queue.drain(..).collect()
                        };
                        if batch.is_empty() {
                            break;
                        }
                        self.commit_and_fulfill(&mut db, batch);
                    }
                }
                Err(std::sync::TryLockError::WouldBlock) => {
                    // Follower: our ops are queued; the leader commits them.
                    if let Some(results) =
                        ticket.wait_timeout(std::time::Duration::from_micros(500))
                    {
                        return results;
                    }
                }
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    // lint: no-panic-ok(a poisoned database lock means a writer crashed mid-commit; propagating the crash beats publishing torn state)
                    panic!("database lock poisoned: {e}")
                }
            }
        }
    }

    /// Commits one drained batch (every queued group, flattened, one
    /// fsync) and wakes its submitters with their per-op results.
    fn commit_and_fulfill(&self, db: &mut Database, batch: Vec<Pending>) {
        let group_sizes: Vec<usize> = batch.iter().map(|p| p.ops.len()).collect();
        let (ops, tickets): (Vec<Vec<WalRecord>>, Vec<Arc<Ticket>>) =
            batch.into_iter().map(|p| (p.ops, p.ticket)).unzip();
        let flat: Vec<WalRecord> = ops.into_iter().flatten().collect();
        let mut results = db.commit_batch(flat);
        // Publish before acknowledging: a writer must be able to read its
        // own write the instant its ack arrives. After an fsync failure
        // nothing was acknowledged (commit_batch rolled memory back), so
        // nothing is published either — readers keep the durable state.
        let acked = results.iter().filter(|r| r.is_ok()).count();
        if acked > 0 {
            self.publish(db);
            self.stats.batches.inc();
            self.stats.ops.add(acked as u64);
            self.stats.max_batch.fetch_max(acked as u64);
            self.stats.last_batch.store(acked as u64);
            if hrdm_obs::enabled() {
                crate::obs::storage_obs()
                    .commit_batch_size
                    .record(acked as u64);
                hrdm_obs::recorder().record(
                    hrdm_obs::EventKind::CommitApplied,
                    format!("batch of {} op(s) in {} group(s)", acked, group_sizes.len()),
                );
            }
        }
        // Hand each group its own slice of the flattened results.
        for (ticket, size) in tickets.into_iter().zip(group_sizes) {
            let rest = results.split_off(size);
            ticket.fulfill(std::mem::replace(&mut results, rest));
        }
    }

    /// Swaps the published snapshot for the leader's post-commit state.
    fn publish(&self, db: &Database) {
        let next = Arc::new(db.snapshot());
        *self.published.write().expect("published lock") = next;
        if hrdm_obs::enabled() {
            crate::obs::storage_obs().snapshot_publish.inc();
        }
    }

    /// Creates a relation (group-committed).
    pub fn create_relation(&self, name: &str, scheme: Scheme) -> Result<(), DbError> {
        self.write(WalRecord::CreateRelation {
            name: name.to_string(),
            scheme,
        })
    }

    /// Inserts a tuple (group-committed).
    pub fn insert(&self, name: &str, tuple: Tuple) -> Result<(), DbError> {
        self.write(WalRecord::Insert {
            relation: name.to_string(),
            tuple,
        })
    }

    /// Replaces a relation's contents (group-committed).
    pub fn put_relation(&self, name: &str, relation: Relation) -> Result<(), DbError> {
        self.write(WalRecord::PutRelation {
            relation: name.to_string(),
            contents: relation,
        })
    }

    /// Create-or-replace in one atomic group: stores `relation` under
    /// `name`, creating the relation if it does not exist. Because both
    /// ops commit in the same batch with a single snapshot publish,
    /// readers never observe the created-but-empty intermediate state,
    /// and two racing materializations of a new name both succeed (one
    /// create wins, both puts apply in commit order — last writer's
    /// contents stick).
    pub fn materialize(&self, name: &str, relation: Relation) -> Result<(), DbError> {
        let scheme = relation.scheme().clone();
        let results = self.write_group(vec![
            WalRecord::CreateRelation {
                name: name.to_string(),
                scheme,
            },
            WalRecord::PutRelation {
                relation: name.to_string(),
                contents: relation,
            },
        ]);
        let mut results = results.into_iter();
        let (create, put) = match (results.next(), results.next()) {
            (Some(create), Some(put)) => (create, put),
            _ => {
                return Err(DbError::Mode(
                    "internal: write_group returned fewer results than ops".into(),
                ))
            }
        };
        match create {
            // Already existed (possibly created by a racing
            // materialization an instant ago): replace is the semantics.
            Err(DbError::Model(hrdm_core::HrdmError::DuplicateRelation(_))) | Ok(()) => put,
            Err(other) => Err(other),
        }
    }

    /// Adds an attribute (schema evolution, group-committed).
    pub fn add_attribute(
        &self,
        relation: &str,
        attribute: Attribute,
        domain: HistoricalDomain,
        from: Chronon,
        to: Chronon,
    ) -> Result<(), DbError> {
        self.write(WalRecord::AddAttribute {
            relation: relation.to_string(),
            attribute,
            domain,
            from,
            to,
        })
    }

    /// Drops an attribute as of `at` (schema evolution, group-committed).
    pub fn drop_attribute(
        &self,
        relation: &str,
        attribute: &Attribute,
        at: Chronon,
    ) -> Result<(), DbError> {
        self.write(WalRecord::DropAttribute {
            relation: relation.to_string(),
            attribute: attribute.clone(),
            at,
        })
    }

    /// Re-adds a dropped attribute over `[from, to]` (schema evolution,
    /// group-committed).
    pub fn re_add_attribute(
        &self,
        relation: &str,
        attribute: &Attribute,
        from: Chronon,
        to: Chronon,
    ) -> Result<(), DbError> {
        self.write(WalRecord::ReAddAttribute {
            relation: relation.to_string(),
            attribute: attribute.clone(),
            from,
            to,
        })
    }

    /// Folds the WAL into a fresh checkpoint (see [`Database::checkpoint`])
    /// and republishes. Readers holding pre-checkpoint snapshots are
    /// unaffected — their state is in memory, not in the rotated files.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let mut db = self.inner.lock().expect("database lock");
        if hrdm_obs::enabled() {
            hrdm_obs::recorder().record(hrdm_obs::EventKind::CheckpointBegin, String::new());
        }
        let started = std::time::Instant::now();
        let outcome = db.checkpoint();
        if hrdm_obs::enabled() {
            let detail = match &outcome {
                Ok(()) => format!("took {:?}", started.elapsed()),
                Err(e) => format!("failed after {:?}: {e}", started.elapsed()),
            };
            hrdm_obs::recorder().record(hrdm_obs::EventKind::CheckpointEnd, detail);
        }
        outcome?;
        self.publish(&db);
        Ok(())
    }

    /// Repartitions every relation under `policy` (e.g. halving the span
    /// to split hot partitions) and republishes. Readers holding earlier
    /// snapshots keep their frozen partition maps — repartitioning builds
    /// new maps beside them (see [`Database::set_partition_policy`]).
    pub fn set_partition_policy(&self, policy: crate::partition::PartitionPolicy) {
        let mut db = self.inner.lock().expect("database lock");
        db.set_partition_policy(policy);
        self.publish(&db);
    }

    /// Exports the current state into `dir` (see [`Database::save`]).
    pub fn save(&self, dir: &Path) -> Result<(), DbError> {
        self.inner.lock().expect("database lock").save(dir)
    }

    /// Group-commit counters (batches, ops, batch sizes).
    pub fn stats(&self) -> CommitStats {
        CommitStats {
            batches: self.stats.batches.get(),
            ops: self.stats.ops.get(),
            max_batch: self.stats.max_batch.get() as usize,
            last_batch: self.stats.last_batch.get() as usize,
        }
    }
}

impl Default for ConcurrentDatabase {
    fn default() -> ConcurrentDatabase {
        ConcurrentDatabase::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{TemporalValue, Value, ValueKind};
    use hrdm_time::Lifespan;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-conc-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn scheme() -> Scheme {
        let era = Lifespan::interval(0, 1_000_000);
        Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap()
    }

    fn tup(k: i64) -> Tuple {
        let life = Lifespan::interval(0, 100);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k)))
            .finish(&scheme())
            .unwrap()
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let db = ConcurrentDatabase::new();
        db.create_relation("r", scheme()).unwrap();
        db.insert("r", tup(1)).unwrap();
        let before = db.snapshot();
        assert_eq!(before.relation("r").unwrap().len(), 1);

        db.insert("r", tup(2)).unwrap();
        // The old snapshot still sees exactly one tuple; a fresh one sees 2.
        assert_eq!(before.relation("r").unwrap().len(), 1);
        assert_eq!(db.snapshot().relation("r").unwrap().len(), 2);
        assert!(before.version() < db.snapshot().version());
    }

    #[test]
    fn snapshot_indexes_are_frozen_with_the_relation() {
        let db = ConcurrentDatabase::new();
        db.create_relation("r", scheme()).unwrap();
        db.insert("r", tup(1)).unwrap();
        let snap = db.snapshot();
        db.insert("r", tup(2)).unwrap();

        // The snapshot's key index and partition map know nothing of the
        // later insert, and their positions resolve against the
        // snapshot's own tuple vector.
        let key = snap.key_index("r").unwrap();
        assert_eq!(key.distinct_keys(), 1);
        let pos = key.lookup(&[Value::Int(1)]);
        assert_eq!(pos.len(), 1);
        assert!(snap.relation("r").unwrap().tuple_at(pos[0]).is_some());
        assert!(key.lookup(&[Value::Int(2)]).is_empty());
        let parts = snap.partitions("r").unwrap();
        assert_eq!(parts.tuple_count(), 1);
        assert_eq!(parts.prune_positions(&Lifespan::interval(0, 100)), pos);
    }

    #[test]
    fn concurrent_writers_all_commit_and_batches_form() {
        let dir = tmp("writers");
        let db = Arc::new(ConcurrentDatabase::open(&dir).unwrap());
        db.create_relation("r", scheme()).unwrap();

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..25i64 {
                        db.insert("r", tup(t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(db.snapshot().relation("r").unwrap().len(), 200);
        let stats = db.stats();
        assert_eq!(stats.ops, 201); // create + 200 inserts
        assert!(stats.batches <= stats.ops);
        assert!(stats.max_batch >= 1);

        // Every acknowledged write survives a reopen (durability of the
        // batched path equals the single-writer path).
        drop(db);
        let back = Database::open(&dir).unwrap();
        assert_eq!(back.relation("r").unwrap().len(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_conflicts_resolve_exactly_one_winner() {
        let db = Arc::new(ConcurrentDatabase::new());
        db.create_relation("r", scheme()).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || db.insert("r", tup(42)).is_ok())
            })
            .collect();
        let wins = threads
            .into_iter()
            .map(|t| t.join().unwrap_or(false))
            .filter(|&won| won)
            .count();
        assert_eq!(wins, 1, "exactly one of 8 same-key inserts may win");
        assert_eq!(db.snapshot().relation("r").unwrap().len(), 1);
    }

    /// `write_group` returns per-op results and publishes once: a group
    /// containing a failing op still carries its valid ops through.
    #[test]
    fn write_group_is_atomic_with_per_op_results() {
        let db = ConcurrentDatabase::new();
        db.create_relation("r", scheme()).unwrap();
        db.insert("r", tup(1)).unwrap();
        let results = db.write_group(vec![
            WalRecord::Insert {
                relation: "r".to_string(),
                tuple: tup(1), // key conflict — this op fails alone
            },
            WalRecord::Insert {
                relation: "r".to_string(),
                tuple: tup(2),
            },
        ]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert_eq!(db.snapshot().relation("r").unwrap().len(), 2);
    }

    /// Racing create-or-replace materializations of a *new* name must
    /// both succeed (create-or-replace semantics), and no reader may
    /// observe the created-but-empty intermediate relation.
    #[test]
    fn racing_materializations_both_succeed_and_hide_the_empty_state() {
        let db = Arc::new(ConcurrentDatabase::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Some(r) = db.snapshot().relation("m") {
                        assert_eq!(r.len(), 1, "observed the empty intermediate state");
                    }
                }
            })
        };
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let r = Relation::with_tuples(scheme(), vec![tup(7)]).unwrap();
                    db.materialize("m", r)
                })
            })
            .collect();
        for w in writers {
            w.join()
                .unwrap()
                .expect("every racing materialize succeeds");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(db.snapshot().relation("m").unwrap().len(), 1);
    }

    #[test]
    fn checkpoint_does_not_disturb_live_snapshots() {
        let dir = tmp("ckpt");
        let db = ConcurrentDatabase::open(&dir).unwrap();
        db.create_relation("r", scheme()).unwrap();
        db.insert("r", tup(1)).unwrap();
        let old = db.snapshot();

        db.insert("r", tup(2)).unwrap();
        db.checkpoint().unwrap();

        assert_eq!(old.relation("r").unwrap().len(), 1);
        assert_eq!(old.epoch(), Some(0));
        let new = db.snapshot();
        assert_eq!(new.relation("r").unwrap().len(), 2);
        assert_eq!(new.epoch(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}

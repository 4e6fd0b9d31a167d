//! Immutable snapshots of a database's committed state.
//!
//! A [`DbSnapshot`] is the reader half of the concurrency model: taking one
//! bumps one reference count per relation — no tuple, scheme, index entry
//! or partition is copied — and once taken it is completely decoupled from
//! the live database. Writers committing new batches, `checkpoint()`
//! rotating epochs, even the old WAL file being deleted — none of it
//! changes what the snapshot's holder sees. Whole query pipelines
//! (optimizer → access-path planner → evaluator) run against a snapshot
//! with zero locks.
//!
//! ## Sharing and copy-on-write
//!
//! A snapshot holds the same `Arc`'d per-relation tables the database
//! held when it was taken. What that sharing costs the *writer* is
//! bounded too: the next insert into a shared relation copies the 64-slot
//! tail of the tuple vector, the newest (≤ 32-entry) tier of the key
//! index and the one partition the tuple lands in (its lifespan index's
//! short pending block included) — O(log n), not the O(n) a flat vector
//! and hash map would cost — and leaves every other leaf, tier and
//! partition as the very allocation the snapshot holds. Two consecutive
//! snapshots therefore share all but the path the writes between them
//! touched.
//!
//! A paged view's snapshot ([`crate::PagedDatabase`]) holds relations
//! whose checkpoint image stays on disk, read by [`DbSnapshot::read_cold`].

use crate::catalog::Catalog;
use crate::database::{DbError, PartitionRead};
use crate::partition::PartitionMap;
use crate::table::{ImageRead, Table, Tables};
use hrdm_core::{HrdmError, Relation, Tuple};
use hrdm_index::KeyIndex;
use hrdm_time::Lifespan;
use std::sync::Arc;

/// An immutable view of a database's committed state at one commit point.
///
/// `hrdm-query` implements its `RelationSource` / `IndexSource` traits for
/// this type, so a snapshot drops into every query entry point that accepts
/// a `Database`. Snapshots are [`Clone`] (a reference-count bump per
/// relation) and `Send + Sync`: hand them to as many reader threads as
/// you like.
#[derive(Clone, Debug)]
pub struct DbSnapshot {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) tables: Tables,
    pub(crate) epoch: Option<u64>,
    pub(crate) version: u64,
}

impl DbSnapshot {
    /// The relation named `name`, as of the snapshot's commit point: its
    /// resident tuples, when its checkpoint image stays on disk.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|t| &t.relation)
    }

    /// The key index of `name`, frozen with the snapshot (`None` as for
    /// [`Database::key_index`](crate::Database::key_index), and for a
    /// relation whose checkpoint image stays on disk). Positions it
    /// returns are valid against [`DbSnapshot::relation`] of the same
    /// snapshot by construction — the index and the tuple vector were
    /// published together.
    pub fn key_index(&self, name: &str) -> Option<&KeyIndex> {
        self.tables.get(name)?.key_index()
    }

    /// The chronon-range partition map of `name` — its lifespan access
    /// path — frozen with the snapshot: a later repartition of the live
    /// database builds new maps and leaves this one untouched, so
    /// positions it yields stay valid against [`DbSnapshot::relation`] of
    /// the same snapshot.
    pub fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        self.tables.get(name).map(|t| &t.partitions)
    }

    /// Appends to `out`, in heap order, the tuples of `name`'s cold
    /// partition `id` whose lifespan meets `window` (every tuple when
    /// `None`), each restricted to `clip` when one is given. Pages whose
    /// zone misses the window are skipped, each visited record's lifespan
    /// is probed in place, and only the hits are decoded.
    pub fn read_cold(
        &self,
        name: &str,
        id: i64,
        window: Option<&Lifespan>,
        clip: Option<&Lifespan>,
        out: &mut Vec<Tuple>,
    ) -> Result<PartitionRead, DbError> {
        let Some(table) = self.tables.get(name) else {
            return Err(DbError::Model(HrdmError::UnknownRelation(name.into())));
        };
        table.read_cold(id, ImageRead::Window(window), clip, out)
    }

    /// A resident snapshot of exactly the tuples meeting `window` (all
    /// when `None`).
    pub(crate) fn materialize(&self, window: Option<&Lifespan>) -> Result<DbSnapshot, DbError> {
        let mut tables = Tables::new();
        for (name, table) in &self.tables {
            let relation = table.materialize(ImageRead::Window(window))?;
            let policy = table.partitions.policy();
            tables.insert(Arc::clone(name), Arc::new(Table::build(relation, policy)));
        }
        let catalog = Arc::clone(&self.catalog);
        Ok(DbSnapshot {
            catalog,
            tables,
            ..*self
        })
    }

    /// The catalog (schemes + evolution log) as of the snapshot.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The registered relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.tables.keys().map(|name| &**name)
    }

    /// The checkpoint epoch the database was on when the snapshot was
    /// taken (`None` for a detached database).
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// The snapshot's version: the count of mutations applied before it
    /// was taken. Versions order snapshots — a reader seeing version `v`
    /// observes exactly the first `v` mutations, never a subset of them
    /// (prefix consistency).
    pub fn version(&self) -> u64 {
        self.version
    }
}

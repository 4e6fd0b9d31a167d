//! One relation's committed state — the unit the live database and its
//! snapshots share.

use crate::partition::{PartitionMap, PartitionPolicy};
use hrdm_core::{Relation, Tuple};
use hrdm_index::KeyIndex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A relation together with the access paths derived from it: the key
/// index and the chronon-range partition map, the relation's one lifespan
/// access path. The three always describe the same tuples — positions an
/// index or partition yields are valid against `relation` by construction.
///
/// ## Sharing and copy-on-write
///
/// [`Tables`] holds one `Arc<Table>` per relation. A snapshot, or a batch
/// undo point, is a clone of that map: reference-count bumps only. The
/// next insert into a relation whose table is still shared clones the
/// `Table` — cheap by construction, since the tuple vector, the key index
/// and every partition share their bulk with the original — and mutates
/// the clone; tables of other relations are not touched at all. With
/// nothing sharing it a table mutates in place.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    pub(crate) relation: Relation,
    /// `None` for a keyless scheme, or once some tuple carries no constant
    /// key value (then no key probe is answerable from an index).
    pub(crate) key: Option<KeyIndex>,
    pub(crate) partitions: PartitionMap,
}

/// Relation name → committed state.
pub(crate) type Tables = BTreeMap<Arc<str>, Arc<Table>>;

impl Table {
    /// Builds the access paths over `relation` in bulk.
    pub(crate) fn build(relation: Relation, policy: PartitionPolicy) -> Table {
        Table {
            key: KeyIndex::build(&relation),
            partitions: PartitionMap::build(&relation, policy),
            relation,
        }
    }

    /// Appends a pre-validated tuple and registers it with every access
    /// path. Most appends are O(log n); the ones that trigger an amortizing
    /// merge — a key-index tier fold, or a run merge in the partition the
    /// tuple lands in — are counted and timed in the registry.
    pub(crate) fn push(&mut self, tuple: Tuple) {
        let pos = self.relation.len();
        let started = hrdm_obs::enabled().then(std::time::Instant::now);
        let mut folds = self.partitions.insert(pos, &tuple);
        if let Some(key) = &mut self.key {
            let before = key.folds();
            if key.insert(pos, &tuple) {
                folds += key.folds() - before;
            } else {
                self.key = None;
            }
        }
        self.relation.push_unchecked(tuple);
        if let (Some(started), true) = (started, folds > 0) {
            let obs = crate::obs::storage_obs();
            obs.index_folds.add(folds);
            obs.index_fold_ns.record_duration(started.elapsed());
        }
    }
}

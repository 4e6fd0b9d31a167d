//! One relation's committed state — the unit the live database and its
//! snapshots share — resident, or with its checkpoint image on disk.

use crate::database::{io_with_path, partition_heap_path, read_partition, DbError, PartitionRead};
use crate::heap::HeapFile;
use crate::obs::storage_obs;
use crate::partition::{PartitionMap, PartitionPolicy};
use crate::pool::BufferPool;
use hrdm_core::{Relation, Scheme, Tuple};
use hrdm_index::KeyIndex;
use hrdm_time::Lifespan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A relation together with the access paths derived from it: the key
/// index and the chronon-range partition map, the relation's one lifespan
/// access path. The three always describe the same tuples — positions an
/// index or partition yields are valid against `relation` by construction.
///
/// A table a paged view opens may keep its checkpoint image on disk as
/// its cold part: `relation` then holds only the WAL tail, and
/// `partitions` is the image's all-cold map, the one map its scans plan
/// against (they read the resident tail whole).
///
/// ## Sharing and copy-on-write
///
/// [`Tables`] holds one `Arc<Table>` per relation. A snapshot, or a batch
/// undo point, is a clone of that map: reference-count bumps only. The
/// next insert into a relation whose table is still shared clones the
/// `Table` — cheap by construction, since the tuple vector, the key index
/// and every partition share their bulk with the original, and the cold
/// part is one `Arc` — and mutates the clone; tables of other relations
/// are not touched at all. With nothing sharing it a table mutates in
/// place.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    pub(crate) relation: Relation,
    /// `None` for a keyless scheme, or once some tuple carries no constant
    /// key value (then no key probe is answerable from an index).
    pub(crate) key: Option<KeyIndex>,
    /// The relation's partitions; with a cold part, the image's (the
    /// resident tail is in no partition).
    pub(crate) partitions: PartitionMap,
    /// The checkpoint image, when it stays on disk.
    pub(crate) cold: Option<Arc<ColdPart>>,
}

/// Relation name → committed state.
pub(crate) type Tables = BTreeMap<Arc<str>, Arc<Table>>;

/// A relation's checkpoint image on disk, whose partitions its table's
/// map holds: the heaps opened so far (lazily, on first fault) and what
/// the scans read of them. Every clone of its table shares it.
pub(crate) struct ColdPart {
    /// Where the heaps live: `<dir>/<name>.<epoch>.p<id>.heap`.
    dir: PathBuf,
    name: String,
    epoch: u64,
    pool: Arc<BufferPool>,
    /// Partition heaps opened so far; absence here (plus a zero fault
    /// count) is the witness that a pruned partition was never touched.
    pub(crate) heaps: Mutex<BTreeMap<i64, Arc<HeapFile>>>,
    /// Heap records the scans visited (each a lifespan probe; records of
    /// skipped pages are not visited), and those of them decoded in full.
    pub(crate) records_scanned: AtomicU64,
    pub(crate) records_decoded: AtomicU64,
}

impl std::fmt::Debug for ColdPart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, epoch) = (&self.name, self.epoch);
        write!(f, "ColdPart({name} @ {epoch})")
    }
}

/// How a checkpoint image is read.
#[derive(Clone, Copy)]
pub(crate) enum ImageRead<'w> {
    /// The eager open's read in full: each heap opened, read whole without
    /// a probe and closed; no zone map is built and nothing is counted.
    Full,
    /// The tuples meeting the window (all when `None`), as a scan reads
    /// them: through the heap cache and the zone maps, and counted.
    Window(Option<&'w Lifespan>),
}

impl ColdPart {
    /// The heap of partition `id`, from the cache or opened (and cached
    /// when `keep`).
    fn heap(&self, id: i64, keep: bool) -> Result<Arc<HeapFile>, DbError> {
        let mut heaps = self.heaps.lock().expect("cold heap cache lock");
        if let Some(h) = heaps.get(&id) {
            return Ok(Arc::clone(h));
        }
        let path = partition_heap_path(&self.dir, &self.name, self.epoch, id);
        let heap = HeapFile::open_in(&path, Arc::clone(&self.pool));
        let heap = Arc::new(heap.map_err(|e| io_with_path(&path, e))?);
        if keep {
            heaps.insert(id, Arc::clone(&heap));
        }
        Ok(heap)
    }
}

impl Table {
    /// Builds the access paths over `relation` in bulk.
    pub(crate) fn build(relation: Relation, policy: PartitionPolicy) -> Table {
        Table {
            key: KeyIndex::build(&relation),
            partitions: PartitionMap::build(&relation, policy),
            relation,
            cold: None,
        }
    }

    /// A relation on `scheme` with nothing resident, its checkpoint image
    /// on disk: `map`'s partitions, in the heaps checkpoint `epoch` wrote
    /// into `dir`, read through `pool`.
    pub(crate) fn cold(
        scheme: Scheme,
        map: PartitionMap,
        (dir, name, epoch): (&Path, &str, u64),
        pool: &Arc<BufferPool>,
    ) -> Table {
        let cold = ColdPart {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            epoch,
            pool: Arc::clone(pool),
            heaps: Mutex::default(),
            records_scanned: AtomicU64::default(),
            records_decoded: AtomicU64::default(),
        };
        let relation = Relation::new(scheme);
        Table {
            key: KeyIndex::build(&relation),
            partitions: map,
            relation,
            cold: Some(Arc::new(cold)),
        }
    }

    /// Appends a pre-validated tuple and registers it with every access
    /// path: the key index, and the partition map unless the table is cold
    /// (its map is the image's). Most appends are O(log n); the ones that
    /// trigger an amortizing merge — a key-index tier fold, or a run merge
    /// in the partition the tuple lands in — are counted and timed in the
    /// registry.
    pub(crate) fn push(&mut self, tuple: Tuple) {
        let pos = self.relation.len();
        let started = hrdm_obs::enabled().then(std::time::Instant::now);
        let mut folds = match self.cold {
            None => self.partitions.insert(pos, &tuple),
            Some(_) => 0,
        };
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

    /// The key index a probe may use: none while a cold part holds rows
    /// the resident tuples' index cannot see.
    pub(crate) fn key_index(&self) -> Option<&KeyIndex> {
        self.key.as_ref().filter(|_| self.cold.is_none())
    }

    /// Every tuple of the relation, cold or resident.
    pub(crate) fn tuple_count(&self) -> usize {
        match self.cold {
            None => self.relation.len(),
            Some(_) => self.relation.len() + self.partitions.tuple_count(),
        }
    }

    /// Appends to `out`, in heap order, the tuples of cold partition `id`
    /// that `how` reads, restricted to `clip` ([`read_partition`]). Nothing
    /// for a partition that is not in the image.
    pub(crate) fn read_cold(
        &self,
        id: i64,
        how: ImageRead<'_>,
        clip: Option<&Lifespan>,
        out: &mut Vec<Tuple>,
    ) -> Result<PartitionRead, DbError> {
        let (Some(cold), Some(part)) = (&self.cold, self.partitions.partition(id)) else {
            return Ok(PartitionRead::default());
        };
        let (count, scheme) = ((id, part.len() as u64), self.relation.scheme());
        let ImageRead::Window(window) = how else {
            let heap = cold.heap(id, false)?;
            return read_partition(&heap, count, scheme, None, clip, None, out);
        };
        let heap = cold.heap(id, true)?;
        let zones = part.page_zones();
        let read = read_partition(&heap, count, scheme, window, clip, zones, out)?;
        cold.records_scanned
            .fetch_add(read.scanned, Ordering::SeqCst);
        cold.records_decoded
            .fetch_add(read.decoded, Ordering::SeqCst);
        if hrdm_obs::enabled() {
            storage_obs().paged_records_scanned.add(read.scanned);
            storage_obs().paged_records_decoded.add(read.decoded);
        }
        Ok(read)
    }

    /// The relation, read into memory as `how` says: the cold partitions
    /// by ascending id, heap order within one, then the resident tuples.
    /// The one routine that reads a checkpoint image into a relation, for
    /// the eager open and a paged view's windowed snapshot alike.
    pub(crate) fn materialize(&self, how: ImageRead<'_>) -> Result<Relation, DbError> {
        let window = match how {
            ImageRead::Full => None,
            ImageRead::Window(window) => window,
        };
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut any_clipped = false;
        if self.cold.is_some() {
            for id in self.partitions.cold_ids(window) {
                any_clipped |= self.read_cold(id, how, None, &mut tuples)?.clipped;
            }
        }
        tuples.extend(
            self.relation
                .iter()
                .filter(|t| window.is_none_or(|w| t.lifespan().intersects(w)))
                .cloned(),
        );
        // A relation is a set: its checkpoint image and WAL tail hold
        // distinct tuples, and only clipping can make two equal.
        let scheme = self.relation.scheme().clone();
        Ok(if any_clipped {
            Relation::from_parts_unchecked(scheme, tuples)
        } else {
            Relation::from_distinct_unchecked(scheme, tuples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{HistoricalDomain, TemporalValue, Value, ValueKind};

    /// WAL-tail pushes into a cold table feed its resident relation and
    /// key index, and leave its one partition map — the image's — as the
    /// manifest describes it: the same partitions and counts, all cold.
    #[test]
    fn pushes_into_a_cold_table_leave_the_image_map_alone() {
        let era = Lifespan::interval(0, 1_000);
        let scheme = Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap();
        let manifest = [(0, 5, 0, 20), (2, 7, 32, 60)];
        let map = PartitionMap::from_manifest(PartitionPolicy::SpanLog2(4), &manifest);
        let dir = std::env::temp_dir();
        let pool = BufferPool::new(4);
        let mut table = Table::cold(scheme.clone(), map, (&dir, "r", 1), &pool);
        for k in 0..100i64 {
            let life = Lifespan::interval(k * 7, k * 7 + 3);
            let tuple = Tuple::builder(life.clone())
                .constant("K", k)
                .value("V", TemporalValue::constant(&life, Value::Int(k)))
                .finish(&scheme)
                .unwrap();
            table.push(tuple);
        }
        let parts: Vec<(i64, usize, bool)> = table
            .partitions
            .iter()
            .map(|(id, p)| (id, p.len(), p.is_cold()))
            .collect();
        assert_eq!(parts, vec![(0, 5, true), (2, 7, true)]);
        assert_eq!(table.partitions.tuple_count(), 12);
        assert_eq!(table.relation.len(), 100);
        assert_eq!(table.tuple_count(), 112);
        let key = table.key.as_ref().expect("the tail's key index is fed");
        assert_eq!(key.lookup(&[Value::Int(42)]), &[42]);
        assert!(
            table.key_index().is_none(),
            "a cold table answers no key index"
        );
        assert_eq!(pool.stats().misses, 0, "nothing was read");
    }
}

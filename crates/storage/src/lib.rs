//! # hrdm-storage — the physical level of HRDM
//!
//! The bottom of the paper's three-level architecture (Fig. 9): "at the
//! physical level are the file structures and access methods". This crate
//! provides a small but real physical layer:
//!
//! * [`codec`] — a compact binary encoding (varint/zigzag) for every model
//!   object: values, lifespans, temporal functions, schemes, tuples,
//!   relations;
//! * [`page`] — fixed-size slotted pages with checksums, and
//!   [`PageWriter`], the one writer of page files: a checkpoint writes
//!   each heap and B+tree once, front to back, sealing every page, and
//!   never rewrites it;
//! * [`pool`] — a page-granular, read-only **buffer pool** (pin counts,
//!   clock eviction) that every on-disk page is read through, capping
//!   resident memory at a configurable budget (`HRDM_POOL_PAGES` frames,
//!   default 256 MiB);
//! * [`heap`] — heap files of encoded tuples over slotted pages, faulted
//!   through the pool on demand;
//! * [`btree`] — a bulk-loaded on-disk B+tree keyed by
//!   (birth-chronon, position), written by every checkpoint;
//! * [`paged`] — [`PagedDatabase`]: an out-of-core read path whose
//!   tables keep their checkpoint images on disk, and whose scans read
//!   only the partitions and heap pages a time window meets, decoding
//!   only the records it keeps;
//! * [`catalog`] — the system catalog, including **schema evolution**: the
//!   attribute-lifespan edits of the paper's Fig. 6 (drop an attribute at
//!   `t2`, re-add it at `t3`) are first-class catalog operations with an
//!   audit log;
//! * [`partition`] — **lifespan-based horizontal partitioning**: each
//!   relation's tuple store is cut into chronon-range partitions with
//!   per-partition heap files, min/max lifespan summaries, and
//!   per-partition lifespan indexes, so time-bounded queries and
//!   checkpoints touch only the partitions they need. The partition map
//!   is a relation's one lifespan access path — there is no
//!   relation-wide lifespan index beside it — and a [`KeyIndex`] its
//!   one key access path;
//! * [`wal`] — a checksummed write-ahead log with torn-tail recovery;
//! * [`database`] — a named collection of historical relations built on
//!   all of the above, with two persistence modes: detached
//!   save/load snapshots, and a durable **attached** mode
//!   ([`Database::open`]) that write-ahead logs every mutation and
//!   checkpoints atomically ([`Database::checkpoint`]);
//! * [`snapshot`] — immutable views of the committed state
//!   ([`DbSnapshot`]) that whole query pipelines run against with zero
//!   locks; taking one is a reference-count bump per relation, and the
//!   write that follows copies O(log n) of the structures it shares, not
//!   the structures;
//! * [`concurrent`] — [`ConcurrentDatabase`]: snapshot-isolated readers
//!   plus a leader/follower **group-commit** writer that batches
//!   concurrent mutations into single fsync'd WAL frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod catalog;
pub mod codec;
pub mod concurrent;
pub mod database;
pub mod heap;
mod obs;
pub mod page;
pub mod paged;
pub mod partition;
pub mod pool;
pub mod snapshot;
mod table;
pub mod wal;

pub use btree::LifespanBTree;
pub use catalog::{Catalog, EvolutionEvent};
pub use codec::{CodecError, Decoder, Encoder, LifespanProbe};
pub use concurrent::{CommitStats, ConcurrentDatabase};
pub use database::{conform_to_scheme, decode_record, Database, DbError, PartitionRead};
pub use heap::HeapFile;
pub use page::{Page, PageWriter, SlotId, MAX_RECORD, PAGE_SIZE};
pub use paged::PagedDatabase;
pub use partition::{Partition, PartitionMap, PartitionPolicy};
pub use pool::{BufferPool, PageGuard, PoolFileId, PoolStats};
pub use snapshot::DbSnapshot;
pub use wal::{Wal, WalRecord};

// Re-export the key index `Database` hands out, so downstream code does
// not need a direct `hrdm-index` dependency for common use.
pub use hrdm_index::KeyIndex;

//! The storage layer's engine-wide metric families, registered once in
//! the global observability registry.
//!
//! These families are process-wide (the WAL and checkpoint code paths
//! have no per-instance home to hang a registry on); instrumentation
//! sites gate on [`hrdm_obs::enabled`], so `HRDM_OBS_OFF=1` reduces
//! each site to one relaxed load. Per-instance commit counters live on
//! [`crate::ConcurrentDatabase`] instead — exact per-database `\stats`
//! values, backed by the same `hrdm-obs` primitives.

use hrdm_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

pub(crate) struct StorageObs {
    /// Durations of WAL batch-frame writes (buffer build + `write`).
    pub wal_append_ns: Arc<Histogram>,
    /// Durations of WAL `sync_data` calls.
    pub wal_fsync_ns: Arc<Histogram>,
    /// Acknowledged ops per group-commit batch.
    pub commit_batch_size: Arc<Histogram>,
    /// End-to-end checkpoint durations (count = checkpoints taken).
    pub checkpoint_ns: Arc<Histogram>,
    /// Dirty partitions rewritten by checkpoints.
    pub checkpoint_dirty_partitions: Arc<Counter>,
    /// Partitions carried into a new checkpoint epoch as clean hard
    /// links (not rewritten).
    pub checkpoint_linked_partitions: Arc<Counter>,
    /// Directory fsyncs issued by saves and checkpoints (two per
    /// checkpoint, however many partitions it rewrote).
    pub dir_fsyncs: Arc<Counter>,
    /// Snapshots published by concurrent databases.
    pub snapshot_publish: Arc<Counter>,
    /// Amortizing index merges triggered by inserts: key-index tier folds
    /// plus the lifespan index folds of the partition each tuple lands in.
    pub index_folds: Arc<Counter>,
    /// Durations of the inserts that carried those merges — the long
    /// commits that pay for the cheap ones around them.
    pub index_fold_ns: Arc<Histogram>,
    /// Buffer-pool page requests served from a resident frame.
    pub pool_hits: Arc<Counter>,
    /// Buffer-pool page requests that faulted the page in from disk.
    pub pool_misses: Arc<Counter>,
    /// Frames evicted by the pool's clock sweep.
    pub pool_evictions: Arc<Counter>,
    /// Heap records paged scans visited (each a lifespan probe).
    pub paged_records_scanned: Arc<Counter>,
    /// Heap records paged scans decoded in full (those meeting the window).
    pub paged_records_decoded: Arc<Counter>,
}

pub(crate) fn storage_obs() -> &'static StorageObs {
    static OBS: OnceLock<StorageObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = hrdm_obs::global();
        StorageObs {
            wal_append_ns: r.histogram(
                "hrdm_wal_append_ns",
                "Wall time of WAL batch-frame writes (frame build + write), nanoseconds",
            ),
            wal_fsync_ns: r.histogram(
                "hrdm_wal_fsync_ns",
                "Wall time of WAL fsync (sync_data) calls, nanoseconds",
            ),
            commit_batch_size: r.histogram(
                "hrdm_commit_batch_size",
                "Acknowledged operations per group-commit batch",
            ),
            checkpoint_ns: r.histogram(
                "hrdm_checkpoint_ns",
                "Wall time of whole checkpoints, nanoseconds (count = checkpoints)",
            ),
            checkpoint_dirty_partitions: r.counter(
                "hrdm_checkpoint_dirty_partitions_total",
                "Dirty partitions rewritten by checkpoints",
            ),
            checkpoint_linked_partitions: r.counter(
                "hrdm_checkpoint_linked_partitions_total",
                "Clean partitions carried across checkpoints as hard links",
            ),
            dir_fsyncs: r.counter(
                "hrdm_storage_dir_fsync_total",
                "Directory fsyncs issued by saves and checkpoints",
            ),
            snapshot_publish: r.counter(
                "hrdm_snapshot_publish_total",
                "Snapshots published by concurrent databases",
            ),
            index_folds: r.counter(
                "hrdm_storage_index_folds_total",
                "Index merges (key tier folds, landing partition's lifespan index folds) triggered by inserts",
            ),
            index_fold_ns: r.histogram(
                "hrdm_storage_index_fold_ns",
                "Wall time of inserts that triggered an index merge, nanoseconds",
            ),
            pool_hits: r.counter(
                "hrdm_pool_hits_total",
                "Buffer-pool page requests served from a resident frame",
            ),
            pool_misses: r.counter(
                "hrdm_pool_misses_total",
                "Buffer-pool page requests faulted in from disk",
            ),
            pool_evictions: r.counter(
                "hrdm_pool_evictions_total",
                "Frames evicted by the buffer pool's clock sweep",
            ),
            paged_records_scanned: r.counter(
                "hrdm_paged_records_scanned_total",
                "Heap records visited by paged scans (a lifespan probe each)",
            ),
            paged_records_decoded: r.counter(
                "hrdm_paged_records_decoded_total",
                "Heap records decoded in full by paged scans (those meeting the window)",
            ),
        }
    })
}

//! Heap files: an unordered collection of encoded records over slotted
//! pages, read and written through the buffer pool.

use crate::page::{SlotId, MAX_RECORD};
use crate::pool::{BufferPool, PoolFileId};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A record's address: page number + slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RecordId {
    /// Page index within the file.
    pub page: u32,
    /// Slot within the page.
    pub slot: SlotId,
}

/// A heap file of variable-length records.
///
/// Pages live in a [`BufferPool`] and are faulted in on demand —
/// [`HeapFile::open_in`] reads nothing but the file length, so opening a
/// 10M-tuple heap is O(1). Inserts go to the last page with room, else
/// a new page — the usual append-mostly heap. Only pages dirtied since
/// the last [`HeapFile::sync`] are written back (the pool tracks dirty
/// frames), and page checksums are verified as each page is faulted in
/// rather than eagerly at open.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: PoolFileId,
    path: PathBuf,
}

impl HeapFile {
    /// Creates (truncating) a heap file at `path` in the global pool.
    pub fn create(path: &Path) -> io::Result<HeapFile> {
        Self::create_in(path, Arc::clone(BufferPool::global()))
    }

    /// Creates (truncating) a heap file at `path` in `pool`.
    ///
    /// [`HeapFile::sync`] makes the file's *pages* durable, not its
    /// directory entry: a caller whose crash safety depends on the name
    /// surviving fsyncs the parent directory once it has settled the name
    /// (a checkpoint creates its heaps under `.tmp` names, renames them,
    /// and syncs the directory once for all of them before its commit
    /// point).
    pub fn create_in(path: &Path, pool: Arc<BufferPool>) -> io::Result<HeapFile> {
        let file = pool.create(path)?;
        Ok(HeapFile {
            pool,
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing heap file in `pool`. Checksums are verified
    /// lazily, when each page is first faulted in.
    pub fn open_in(path: &Path, pool: Arc<BufferPool>) -> io::Result<HeapFile> {
        let file = pool.open(path)?;
        Ok(HeapFile {
            pool,
            file,
            path: path.to_path_buf(),
        })
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        // A failure here means the handle was closed under us, which the
        // single-owner API makes impossible; report the file as empty
        // rather than panicking.
        self.pool.page_count(self.file).unwrap_or(0) as usize
    }

    /// The pool this heap reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The pool handle, for per-file fault accounting.
    pub fn pool_file(&self) -> PoolFileId {
        self.file
    }

    /// Inserts a record, returning its id.
    ///
    /// Records must be non-empty and at most [`MAX_RECORD`]
    /// (`PAGE_SIZE - PAGE_HEADER - PAGE_SLOT`) bytes — the exact
    /// capacity of an empty page, not an approximation of it.
    pub fn insert(&mut self, record: &[u8]) -> io::Result<RecordId> {
        if record.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty records are not representable (zero slot length marks a tombstone)",
            ));
        }
        if record.len() > MAX_RECORD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes exceeds page capacity ({MAX_RECORD})",
                    record.len()
                ),
            ));
        }
        let pages = self.pool.page_count(self.file)?;
        if pages > 0 {
            let last = pages - 1;
            let guard = self.pool.get(self.file, last)?;
            // Probe with a read guard first: taking the write guard
            // marks the frame dirty, which would force a write-back of
            // an untouched full page on the next sync.
            // lint: lock-order-ok(the read guard is a temporary dropped at this statement's semicolon, before the write acquisition below)
            let fits = guard.read().free_space() >= record.len();
            if fits {
                if let Some(slot) = guard.write().insert(record) {
                    return Ok(RecordId { page: last, slot });
                }
            }
        }
        // Last page full (or no pages): append one. `alloc` reports
        // "heap file full" instead of letting the u32 page index wrap.
        let (page_no, guard) = self.pool.alloc(self.file)?;
        let mut page = guard.write();
        let Some(slot) = page.insert(record) else {
            // Unreachable past the MAX_RECORD guard above, but refusing
            // is strictly better than unwinding mid-append.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record does not fit an empty page",
            ));
        };
        Ok(RecordId {
            page: page_no,
            slot,
        })
    }

    /// Reads the record at `id`. `Ok(None)` for tombstoned slots and
    /// for out-of-range pages or slots (a `RecordId` from another file
    /// is a lookup miss, not a fault).
    pub fn get(&self, id: RecordId) -> io::Result<Option<Vec<u8>>> {
        if u64::from(id.page) >= self.pool.page_count(self.file)? as u64 {
            return Ok(None);
        }
        let guard = self.pool.get(self.file, id.page)?;
        let page = guard.read();
        let record = page.get(id.slot).map(<[u8]>::to_vec);
        drop(page);
        Ok(record)
    }

    /// Tombstones the record at `id`; `Ok(true)` if it was live.
    pub fn delete(&mut self, id: RecordId) -> io::Result<bool> {
        if u64::from(id.page) >= self.pool.page_count(self.file)? as u64 {
            return Ok(false);
        }
        let guard = self.pool.get(self.file, id.page)?;
        // Only mark dirty if the slot was actually live.
        // lint: lock-order-ok(the read guard is a temporary dropped at this statement's semicolon, before the write acquisition below)
        let was_live = guard.read().get(id.slot).is_some();
        if !was_live {
            return Ok(false);
        }
        let mut page = guard.write();
        let deleted = page.delete(id.slot);
        drop(page);
        Ok(deleted)
    }

    /// Calls `visit` on every live record in (page, slot) order, lending
    /// the record's bytes from its pinned page: nothing is copied. Pages
    /// fault in through the pool one at a time; a page that fails its
    /// checksum at fault time (lazy open defers corruption detection to
    /// first touch) ends the scan with an error naming the file, and so
    /// does the first error `visit` returns.
    pub fn scan<E: From<io::Error>>(
        &self,
        mut visit: impl FnMut(RecordId, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let pages = self
            .pool
            .page_count(self.file)
            .map_err(|e| self.with_path(e))?;
        for page_no in 0..pages {
            self.scan_page(page_no, &mut visit)?;
        }
        Ok(())
    }

    /// [`HeapFile::scan`] of page `page_no` alone: only that page is
    /// pinned. A page past the end of the file is an error naming the
    /// file, like a checksum failure.
    pub fn scan_page<E: From<io::Error>>(
        &self,
        page_no: u32,
        mut visit: impl FnMut(RecordId, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let guard = self
            .pool
            .get(self.file, page_no)
            .map_err(|e| self.with_path(e))?;
        let page = guard.read();
        for (slot, record) in page.iter() {
            visit(
                RecordId {
                    page: page_no,
                    slot,
                },
                record,
            )?;
        }
        Ok(())
    }

    /// `e`, its message prefixed with this heap's path.
    fn with_path<E: From<io::Error>>(&self, e: io::Error) -> E {
        E::from(io::Error::new(
            e.kind(),
            format!("{}: {e}", self.path.display()),
        ))
    }

    /// Writes dirty pages back (sealed), trims, and fsyncs the file.
    pub fn sync(&mut self) -> io::Result<()> {
        self.pool.flush(self.file)
    }

    /// The heap's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        // Release the pool's frames and file handle. Unsynced dirty
        // pages are discarded, matching the old in-memory semantics.
        self.pool.close(self.file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE as PS;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-heap-{}-{name}", std::process::id()));
        p
    }

    fn pool(pages: usize) -> Arc<BufferPool> {
        BufferPool::new(pages)
    }

    fn collect(h: &HeapFile) -> Vec<(RecordId, Vec<u8>)> {
        let mut out = Vec::new();
        h.scan(|id, rec| {
            out.push((id, rec.to_vec()));
            Ok::<_, io::Error>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn insert_scan_round_trip() {
        let path = tmp("basic");
        let mut h = HeapFile::create_in(&path, pool(8)).unwrap();
        let ids: Vec<RecordId> = (0..100)
            .map(|i| h.insert(format!("record-{i}").as_bytes()).unwrap())
            .collect();
        assert_eq!(h.get(ids[42]).unwrap().as_deref(), Some(&b"record-42"[..]));
        assert_eq!(collect(&h).len(), 100);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("reopen");
        let p = pool(4); // smaller than the file: eviction on the way in
        {
            let mut h = HeapFile::create_in(&path, Arc::clone(&p)).unwrap();
            for i in 0..2000 {
                h.insert(format!("row {i} with some padding").as_bytes())
                    .unwrap();
            }
            h.sync().unwrap();
            assert!(h.page_count() > 1);
        }
        let h = HeapFile::open_in(&path, p).unwrap();
        let rows = collect(&h);
        assert_eq!(rows.len(), 2000);
        assert_eq!(rows[0].1, b"row 0 with some padding");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn detects_corruption_at_fault_time() {
        let path = tmp("corrupt");
        let p = pool(8);
        {
            let mut h = HeapFile::create_in(&path, Arc::clone(&p)).unwrap();
            h.insert(b"precious").unwrap();
            h.sync().unwrap();
        }
        // Flip a byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Lazy open succeeds; the first fault of the bad page errors.
        let h = HeapFile::open_in(&path, p).unwrap();
        let err = h
            .scan(|_, _| Ok::<_, io::Error>(()))
            .expect_err("corruption surfaces");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn delete_skips_in_scan() {
        let path = tmp("delete");
        let mut h = HeapFile::create_in(&path, pool(8)).unwrap();
        let a = h.insert(b"a").unwrap();
        let _b = h.insert(b"b").unwrap();
        assert!(h.delete(a).unwrap());
        assert!(!h.delete(a).unwrap()); // already dead
        assert_eq!(collect(&h).len(), 1);
        assert_eq!(h.get(a).unwrap(), None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capacity_guard_matches_page_exactly() {
        let path = tmp("cap");
        let mut h = HeapFile::create_in(&path, pool(4)).unwrap();
        // Exactly MAX_RECORD bytes fits (the old `PAGE_SIZE - 16` guard
        // wrongly rejected 8177..=8180).
        let exact = vec![0x5au8; MAX_RECORD];
        let id = h.insert(&exact).unwrap();
        assert_eq!(h.get(id).unwrap().as_deref(), Some(&exact[..]));
        // One past capacity is refused with InvalidInput...
        let err = h.insert(&vec![0u8; MAX_RECORD + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = h.insert(&vec![0u8; PS]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // ...and so is the empty record, explicitly.
        let err = h.insert(b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("empty"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn foreign_record_ids_miss_not_fault() {
        let path = tmp("bounds");
        let mut h = HeapFile::create_in(&path, pool(4)).unwrap();
        h.insert(b"only").unwrap();
        let beyond = RecordId {
            page: 7_000_000,
            slot: 0,
        };
        assert_eq!(h.get(beyond).unwrap(), None);
        assert!(!h.delete(beyond).unwrap());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sync_only_writes_dirty_pages() {
        let path = tmp("dirty-only");
        let p = pool(64);
        let mut h = HeapFile::create_in(&path, Arc::clone(&p)).unwrap();
        for i in 0..2000u32 {
            h.insert(format!("row {i} with some padding").as_bytes())
                .unwrap();
        }
        h.sync().unwrap();
        let after_first = p.stats().writebacks;
        assert!(after_first as usize >= h.page_count());
        // Touch one record on one page; the next sync writes ~1 page,
        // not the whole file (the old sync rewrote everything).
        let id = h.insert(b"one more").unwrap();
        assert!(h.get(id).unwrap().is_some());
        h.sync().unwrap();
        let delta = p.stats().writebacks - after_first;
        assert_eq!(delta, 1, "dirty-only sync must write exactly 1 page");
        // A no-op sync writes nothing.
        h.sync().unwrap();
        assert_eq!(p.stats().writebacks, after_first + delta);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tombstones_survive_sync_and_reopen() {
        let path = tmp("tombstone-reopen");
        let p = pool(8);
        let (a, b, c);
        {
            let mut h = HeapFile::create_in(&path, Arc::clone(&p)).unwrap();
            a = h.insert(b"alpha").unwrap();
            b = h.insert(b"beta").unwrap();
            c = h.insert(b"gamma").unwrap();
            assert!(h.delete(b).unwrap());
            h.sync().unwrap();
        }
        let h = HeapFile::open_in(&path, p).unwrap();
        assert_eq!(h.get(a).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(h.get(b).unwrap(), None);
        assert_eq!(h.get(c).unwrap().as_deref(), Some(&b"gamma"[..]));
        assert_eq!(collect(&h).len(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_correct_under_tiny_pool() {
        let path = tmp("tiny-pool");
        let p = pool(1); // forced eviction during both write and scan
        let mut h = HeapFile::create_in(&path, Arc::clone(&p)).unwrap();
        for i in 0..500u32 {
            h.insert(format!("padded row number {i:08}").as_bytes())
                .unwrap();
        }
        let rows = collect(&h);
        assert_eq!(rows.len(), 500);
        for (i, (_, rec)) in rows.iter().enumerate() {
            assert_eq!(rec, format!("padded row number {i:08}").as_bytes());
        }
        assert!(p.stats().evictions > 0);
        std::fs::remove_file(path).ok();
    }
}

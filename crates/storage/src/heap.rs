//! Heap files: an unordered collection of encoded records over slotted
//! pages, read through the buffer pool. A heap is written once, by
//! [`crate::PageWriter::push`], and immutable afterwards.

use crate::pool::{BufferPool, PoolFileId};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A heap file of variable-length records, opened for reading.
///
/// Pages live in a [`BufferPool`] and are faulted in on demand —
/// [`HeapFile::open_in`] reads nothing but the file length, so opening a
/// 10M-tuple heap is O(1), and page checksums are verified as each page
/// is faulted in rather than eagerly at open.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: PoolFileId,
    path: PathBuf,
}

impl HeapFile {
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

    /// The pool handle, for per-file fault accounting.
    pub fn pool_file(&self) -> PoolFileId {
        self.file
    }

    /// Calls `visit` on every record in file order, lending the record's
    /// bytes from its pinned page: nothing is copied. Pages fault in
    /// through the pool one at a time; a page that fails its checksum at
    /// fault time (lazy open defers corruption detection to first touch)
    /// ends the scan with an error naming the file, and so does the first
    /// error `visit` returns.
    pub fn scan<E: From<io::Error>>(
        &self,
        mut visit: impl FnMut(&[u8]) -> Result<(), E>,
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
        mut visit: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let guard = self
            .pool
            .get(self.file, page_no)
            .map_err(|e| self.with_path(e))?;
        for (_, record) in guard.read().iter() {
            visit(record)?;
        }
        Ok(())
    }

    /// `e`, its message prefixed with this heap's path.
    fn with_path<E: From<io::Error>>(&self, e: io::Error) -> E {
        E::from(crate::page::with_path(&self.path, e))
    }

    /// The heap's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        // Release the pool's frames and file handle.
        self.pool.close(self.file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageWriter, MAX_RECORD, PAGE_SIZE as PS};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-heap-{}-{name}", std::process::id()));
        p
    }

    fn pool(pages: usize) -> Arc<BufferPool> {
        BufferPool::new(pages)
    }

    /// Writes `records` as a heap at `path`.
    fn write<R: AsRef<[u8]>>(path: &Path, records: impl IntoIterator<Item = R>) {
        let mut w = PageWriter::create(path).unwrap();
        for r in records {
            w.push(r.as_ref()).unwrap();
        }
        w.finish().unwrap();
    }

    fn collect(h: &HeapFile) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        h.scan(|rec| {
            out.push(rec.to_vec());
            Ok::<_, io::Error>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn insert_scan_round_trip() {
        let path = tmp("basic");
        write(&path, (0..100).map(|i| format!("record-{i}")));
        let h = HeapFile::open_in(&path, pool(8)).unwrap();
        let rows = collect(&h);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], b"record-42");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("reopen");
        let p = pool(4); // smaller than the file: eviction on the way in
        write(
            &path,
            (0..2000).map(|i| format!("row {i} with some padding")),
        );
        let h = HeapFile::open_in(&path, Arc::clone(&p)).unwrap();
        assert!(h.page_count() > 1);
        let rows = collect(&h);
        assert_eq!(rows.len(), 2000);
        assert_eq!(rows[0], b"row 0 with some padding");
        drop(h);
        let h = HeapFile::open_in(&path, p).unwrap();
        assert_eq!(collect(&h).len(), 2000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn detects_corruption_at_fault_time() {
        let path = tmp("corrupt");
        write(&path, [b"precious"]);
        // Flip a byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Lazy open succeeds; the first fault of the bad page errors.
        let h = HeapFile::open_in(&path, pool(8)).unwrap();
        let err = h
            .scan(|_| Ok::<_, io::Error>(()))
            .expect_err("corruption surfaces");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capacity_guard_matches_page_exactly() {
        let path = tmp("cap");
        let mut w = PageWriter::create(&path).unwrap();
        // Exactly MAX_RECORD bytes fits (the old `PAGE_SIZE - 16` guard
        // wrongly rejected 8177..=8180).
        let exact = vec![0x5au8; MAX_RECORD];
        w.push(&exact).unwrap();
        // One past capacity is refused with InvalidInput, naming the file...
        let err = w.push(&vec![0u8; MAX_RECORD + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        let err = w.push(&vec![0u8; PS]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // ...and so is the empty record, explicitly.
        let err = w.push(b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("empty"), "{err}");
        // The refused records left the file as it was.
        w.finish().unwrap();
        let h = HeapFile::open_in(&path, pool(4)).unwrap();
        assert_eq!(h.page_count(), 1);
        assert_eq!(collect(&h), vec![exact]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_correct_under_tiny_pool() {
        let path = tmp("tiny-pool");
        write(
            &path,
            (0..500u32).map(|i| format!("padded row number {i:08}")),
        );
        let p = pool(1); // forced eviction during the scan
        let h = HeapFile::open_in(&path, Arc::clone(&p)).unwrap();
        let rows = collect(&h);
        assert_eq!(rows.len(), 500);
        for (i, rec) in rows.iter().enumerate() {
            assert_eq!(rec, format!("padded row number {i:08}").as_bytes());
        }
        assert!(p.stats().evictions > 0);
        std::fs::remove_file(path).ok();
    }
}

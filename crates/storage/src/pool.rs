//! Page-granular buffer pool: the out-of-core backbone.
//!
//! Every on-disk page the engine reads — heap-file pages, B+tree nodes —
//! is faulted into a fixed budget of in-memory *frames* and accessed
//! through [`PageGuard`]s. The pool only reads: page files are
//! written once by [`crate::PageWriter`] and immutable afterwards, so a
//! frame is never dirty and the pool opens its files read-only. Callers
//! register a file ([`BufferPool::open`]) and from then on address pages
//! by `(PoolFileId, page_no)`. Requests for a resident page are hits;
//! anything else faults the page in from disk (verifying its
//! [`Page::seal`] checksum), evicting an unpinned frame first when the
//! pool is at capacity.
//!
//! # Eviction
//!
//! Eviction is a clock (second-chance FIFO) sweep: each frame carries a
//! reference bit set on every access; the sweep clears the bit on the
//! first pass and drops the frame on the second, skipping pinned frames.
//! A frame is an immutable page behind an `Arc`, and each guard holds one
//! clone of it, so a frame is pinned exactly when its strong count is above
//! the frame table's own reference. The sweep reads that count under the
//! pool mutex, which is also the only place a guard is made.
//! The capacity is a *soft* cap: if every frame is pinned the pool
//! overcommits rather than deadlocking, so a deliberately tiny pool
//! (`HRDM_POOL_PAGES=8` in CI) stays correct under parallel tests sharing
//! the global pool.
//!
//! # Sizing
//!
//! The process-global pool ([`BufferPool::global`]) sizes itself from
//! `HRDM_POOL_PAGES` (frame count), defaulting to 256 MiB (32768 frames
//! of 8 KiB). Tests build private pools with [`BufferPool::new`] so
//! capacity is deterministic.
//!
//! # Counters
//!
//! Per-pool [`PoolStats`] (hits / misses / evictions) are always on; the
//! same events also feed the global `hrdm_pool_*` metric families when
//! `hrdm-obs` is enabled, and per-file fault counts
//! ([`BufferPool::faults_for`]) let tests prove a cold file was never
//! touched.

use crate::obs::storage_obs;
use crate::page::{Page, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default pool budget: 256 MiB of 8 KiB pages.
pub const DEFAULT_POOL_BYTES: u64 = 256 * 1024 * 1024;

/// Handle to a file registered with a [`BufferPool`].
///
/// Ids are never reused within a pool, so a stale handle (after
/// [`BufferPool::close`]) fails loudly instead of aliasing another file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PoolFileId(u64);

/// One resident page: the frame table maps `(file, page_no)` to these.
struct Frame {
    page: Page,
    /// Second-chance bit for the clock sweep.
    referenced: AtomicBool,
}

/// A file registered with the pool.
struct PooledFile {
    file: File,
    path: PathBuf,
    page_count: u32,
    /// Pages faulted in from this file (ever).
    faults: u64,
}

struct PoolInner {
    frames: HashMap<(u64, u32), Arc<Frame>>,
    /// Clock order: fault order, recycled by the second-chance sweep.
    clock: VecDeque<(u64, u32)>,
    files: HashMap<u64, PooledFile>,
    next_file: u64,
}

/// Monotonic event counters for one pool. Snapshot via [`BufferPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that read the page from disk.
    pub misses: u64,
    /// Frames evicted by the clock sweep.
    pub evictions: u64,
    /// Always 0: the pool never writes. Kept only because the frozen
    /// benchmark's traced run reads it, until that benchmark is re-pointed
    /// (ROADMAP item 3).
    pub writebacks: u64,
    /// Frames currently resident.
    pub resident: usize,
    /// Soft frame cap.
    pub capacity: usize,
}

#[derive(Default)]
struct PoolCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A page-granular, read-only buffer pool over [`Page`]-formatted files.
///
/// All methods take `&self`; the pool is shared via `Arc` between every
/// `HeapFile` / `LifespanBTree` opened over it and is safe to use from
/// multiple threads (one internal mutex serializes the frame table and
/// file I/O).
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    counters: PoolCounters,
}

impl BufferPool {
    /// A pool with a soft cap of `capacity_pages` frames (minimum 1).
    pub fn new(capacity_pages: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                clock: VecDeque::new(),
                files: HashMap::new(),
                next_file: 0,
            }),
            capacity: capacity_pages.max(1),
            counters: PoolCounters::default(),
        })
    }

    /// The process-global pool, sized once from the environment:
    /// `HRDM_POOL_PAGES` frames; default [`DEFAULT_POOL_BYTES`].
    pub fn global() -> &'static Arc<BufferPool> {
        static GLOBAL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| BufferPool::new(capacity_from_env()))
    }

    /// The soft frame cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let resident = self.lock_inner().frames.len();
        PoolStats {
            hits: self.counters.hits.load(Ordering::SeqCst),
            misses: self.counters.misses.load(Ordering::SeqCst),
            evictions: self.counters.evictions.load(Ordering::SeqCst),
            writebacks: 0,
            resident,
            capacity: self.capacity,
        }
    }

    /// Pages ever faulted in from `file` (0 for unknown/closed files).
    /// This is the "cold partitions were never read" witness.
    pub fn faults_for(&self, file: PoolFileId) -> u64 {
        self.lock_inner().files.get(&file.0).map_or(0, |f| f.faults)
    }

    /// Registers an existing [`Page`]-formatted file, opened read-only.
    /// The length must be a whole number of pages; page checksums are
    /// verified lazily, when each page is first faulted in.
    pub fn open(&self, path: &Path) -> io::Result<PoolFileId> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: length {len} is not a multiple of the page size",
                    path.display()
                ),
            ));
        }
        let Ok(page_count) = u32::try_from(len / PAGE_SIZE as u64) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: too many pages for a 32-bit page index", path.display()),
            ));
        };
        let mut inner = self.lock_inner();
        let id = inner.next_file;
        inner.next_file += 1;
        inner.files.insert(
            id,
            PooledFile {
                file,
                path: path.to_path_buf(),
                page_count,
                faults: 0,
            },
        );
        Ok(PoolFileId(id))
    }

    /// Unregisters `file`, dropping its frames and closing the handle.
    pub fn close(&self, file: PoolFileId) {
        let mut inner = self.lock_inner();
        inner.files.remove(&file.0);
        inner.frames.retain(|&(fid, _), _| fid != file.0);
        // Stale clock keys are skipped (and dropped) by later sweeps.
    }

    /// Page count of `file`.
    pub fn page_count(&self, file: PoolFileId) -> io::Result<u32> {
        let inner = self.lock_inner();
        match inner.files.get(&file.0) {
            Some(f) => Ok(f.page_count),
            None => Err(stale_handle()),
        }
    }

    /// Pins page `page_no` of `file`, faulting it in if non-resident.
    pub fn get(&self, file: PoolFileId, page_no: u32) -> io::Result<PageGuard> {
        let mut inner = self.lock_inner();
        if let Some(frame) = inner.frames.get(&(file.0, page_no)) {
            let frame = Arc::clone(frame);
            frame.referenced.store(true, Ordering::SeqCst);
            drop(inner);
            self.counters.hits.fetch_add(1, Ordering::SeqCst);
            if hrdm_obs::enabled() {
                storage_obs().pool_hits.add(1);
                hrdm_obs::window::pool_windows().hits.add(1);
            }
            return Ok(PageGuard { frame });
        }
        // Miss: fault the page in, evicting first if at capacity.
        self.make_room(&mut inner);
        let page = {
            let f = inner.files.get_mut(&file.0).ok_or_else(stale_handle)?;
            if page_no >= f.page_count {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "{}: page {page_no} out of range ({} pages)",
                        f.path.display(),
                        f.page_count
                    ),
                ));
            }
            f.faults += 1;
            // Read straight into the frame's own page: no stack copy.
            let mut page = Page::new();
            f.file
                .seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))?;
            f.file.read_exact(page.bytes_mut())?;
            if !page.verify() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: checksum mismatch on page {page_no}", f.path.display()),
                ));
            }
            page
        };
        let frame = Arc::new(Frame {
            page,
            referenced: AtomicBool::new(true),
        });
        inner.frames.insert((file.0, page_no), Arc::clone(&frame));
        inner.clock.push_back((file.0, page_no));
        drop(inner);
        self.counters.misses.fetch_add(1, Ordering::SeqCst);
        if hrdm_obs::enabled() {
            storage_obs().pool_misses.add(1);
            hrdm_obs::window::pool_windows().misses.add(1);
        }
        Ok(PageGuard { frame })
    }

    /// Drops unpinned frames until under the soft cap. If every frame is
    /// pinned the pool overcommits (grows past `capacity`) rather than
    /// deadlocking.
    fn make_room(&self, inner: &mut PoolInner) {
        let mut evicted = 0u64;
        while inner.frames.len() >= self.capacity {
            // Bounded sweep: two passes over the clock is enough to give
            // every frame its second chance; if nothing is evictable by
            // then, overcommit.
            let mut budget = inner.clock.len().saturating_mul(2);
            let mut victim = None;
            while budget > 0 {
                budget -= 1;
                let Some(key) = inner.clock.pop_front() else {
                    break;
                };
                let Some(frame) = inner.frames.get(&key) else {
                    continue; // stale key for a closed file / prior eviction
                };
                if Arc::strong_count(frame) > 1 || frame.referenced.swap(false, Ordering::SeqCst) {
                    inner.clock.push_back(key);
                    continue;
                }
                victim = Some(key);
                break;
            }
            let Some(key) = victim else {
                break; // everything pinned or referenced: overcommit
            };
            // Unpinned + under the pool mutex: no guard can appear, so
            // dropping the frame is safe.
            inner.frames.remove(&key);
            evicted += 1;
        }
        if evicted > 0 {
            self.counters.evictions.fetch_add(evicted, Ordering::SeqCst);
            if hrdm_obs::enabled() {
                storage_obs().pool_evictions.add(evicted);
                // One event per eviction sweep, not per page — see the
                // flight recorder's cost model.
                hrdm_obs::recorder().record(
                    hrdm_obs::EventKind::PoolEviction,
                    format!("evicted {evicted} page(s)"),
                );
            }
        }
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().expect("buffer pool lock")
    }
}

fn stale_handle() -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        "buffer pool: stale file handle (file was closed)",
    )
}

fn capacity_from_env() -> usize {
    let pages = std::env::var("HRDM_POOL_PAGES").ok();
    match pages.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(pages) => pages.max(1),
        None => (DEFAULT_POOL_BYTES / PAGE_SIZE as u64) as usize,
    }
}

/// A pinned page: a clone of its frame's `Arc`. The frame cannot be
/// evicted while any guard exists; dropping the guard unpins it.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// The pinned page.
    pub fn read(&self) -> &Page {
        &self.frame.page
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageWriter;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-pool-{}-{name}", std::process::id()));
        p
    }

    /// Writes `n` pages to `path`, page `i` holding one record `[i; len]`.
    fn write_pages(path: &Path, n: u8, len: usize) {
        let mut w = PageWriter::create(path).unwrap();
        for i in 0..n {
            let mut page = Page::new();
            page.insert(&vec![i; len]).unwrap();
            assert_eq!(w.append(page).unwrap(), u32::from(i));
        }
        w.finish().unwrap();
    }

    #[test]
    fn alloc_get_round_trip() {
        let path = tmp("round-trip");
        let pool = BufferPool::new(4);
        write_pages(&path, 1, 10);
        let f = pool.open(&path).unwrap();
        for _ in 0..2 {
            let g = pool.get(f, 0).unwrap();
            assert_eq!(g.read().get(0), Some(&[0u8; 10][..]));
        }
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.writebacks), (1, 1, 0));
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_writes_back_and_refaults() {
        let path = tmp("evict");
        write_pages(&path, 6, 100);
        let pool = BufferPool::new(2);
        let f = pool.open(&path).unwrap();
        // Capacity 2 with 6 pages, read twice: every page faults back in
        // with its data (and a valid checksum) after being dropped.
        for _ in 0..2 {
            for i in 0..6u8 {
                let g = pool.get(f, u32::from(i)).unwrap();
                assert_eq!(g.read().get(0), Some(&[i; 100][..]));
            }
        }
        let s = pool.stats();
        assert!(s.resident <= 2);
        assert!(s.evictions >= 10, "evictions: {}", s.evictions);
        assert_eq!(s.misses, 12);
        assert_eq!(s.writebacks, 0, "the pool never writes");
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let path = tmp("pinned");
        write_pages(&path, 9, 6);
        let pool = BufferPool::new(2);
        let f = pool.open(&path).unwrap();
        let g0 = pool.get(f, 0).unwrap();
        // Fault way past capacity while holding every guard: the pool
        // must overcommit, never evict a pinned frame.
        let guards: Vec<_> = (1..9).map(|i| pool.get(f, i).unwrap()).collect();
        assert_eq!(pool.stats().resident, 9);
        drop(guards);
        assert_eq!(g0.read().get(0), Some(&[0u8; 6][..]));
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flush_persists_and_reopen_verifies() {
        let path = tmp("flush");
        write_pages(&path, 3, 10);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            3 * PAGE_SIZE as u64
        );
        let pool = BufferPool::new(8);
        let f = pool.open(&path).unwrap();
        assert_eq!(pool.page_count(f).unwrap(), 3);
        for i in 0..3u8 {
            let g = pool.get(f, u32::from(i)).unwrap();
            assert_eq!(g.read().get(0), Some(&[i; 10][..]));
        }
        assert_eq!(pool.faults_for(f), 3);
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_detects_corruption() {
        let path = tmp("corrupt");
        write_pages(&path, 1, 8);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let pool = BufferPool::new(8);
        let f = pool.open(&path).unwrap(); // lazy: open succeeds
        let err = pool.get(f, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stale_handle_fails_loudly() {
        let path = tmp("stale");
        write_pages(&path, 1, 1);
        let pool = BufferPool::new(4);
        let f = pool.open(&path).unwrap();
        pool.close(f);
        assert!(pool.get(f, 0).is_err());
        assert!(pool.page_count(f).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_page_rejected() {
        let path = tmp("range");
        write_pages(&path, 0, 0);
        let pool = BufferPool::new(4);
        let f = pool.open(&path).unwrap();
        let err = pool.get(f, 7).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn per_file_fault_isolation() {
        let pa = tmp("iso-a");
        let pb = tmp("iso-b");
        write_pages(&pa, 2, 1);
        write_pages(&pb, 2, 1);
        let pool = BufferPool::new(8);
        let a = pool.open(&pa).unwrap();
        let b = pool.open(&pb).unwrap();
        drop(pool.get(a, 0).unwrap());
        drop(pool.get(a, 1).unwrap());
        assert_eq!(pool.faults_for(a), 2);
        assert_eq!(pool.faults_for(b), 0, "cold file must never fault");
        pool.close(a);
        pool.close(b);
        std::fs::remove_file(pa).ok();
        std::fs::remove_file(pb).ok();
    }
}

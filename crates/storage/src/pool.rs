//! Page-granular buffer pool: the out-of-core backbone.
//!
//! Every on-disk page the engine touches — heap-file pages, B+tree
//! nodes — is faulted into a fixed budget of in-memory *frames* and
//! accessed through pinned [`PageGuard`]s. The pool owns the file
//! handles: callers register a file ([`BufferPool::create`] /
//! [`BufferPool::open`]) and from then on address pages by
//! `(PoolFileId, page_no)`. Requests for a resident page are hits;
//! anything else faults the page in from disk (verifying its
//! [`Page::seal`] checksum), evicting an unpinned frame first when the
//! pool is at capacity.
//!
//! # Eviction
//!
//! Eviction is a clock (second-chance FIFO) sweep: each frame carries a
//! reference bit set on every access; the sweep clears the bit on the
//! first pass and evicts on the second, skipping pinned frames. Evicting
//! a dirty frame writes the sealed page back to its file slot first
//! (without fsync — durability is [`BufferPool::flush`]'s job, invoked
//! by `HeapFile::sync` on the checkpoint path). The capacity is a *soft*
//! cap: if every frame is pinned the pool overcommits rather than
//! deadlocking, so a deliberately tiny pool (`HRDM_POOL_PAGES=8` in CI)
//! stays correct under parallel tests sharing the global pool.
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
//! Per-pool [`PoolStats`] (hits / misses / evictions / writebacks) are
//! always on; the same events also feed the global `hrdm_pool_*`
//! metric families when `hrdm-obs` is enabled, and per-file fault
//! counts ([`BufferPool::faults_for`]) let tests prove a cold file was
//! never touched.

use crate::obs::storage_obs;
use crate::page::{Page, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
    page: RwLock<Page>,
    /// Guards outstanding on this frame; only unpinned frames evict.
    pins: AtomicU32,
    /// Set by [`PageGuard::write`]; cleared by write-back.
    dirty: AtomicBool,
    /// Second-chance bit for the clock sweep.
    referenced: AtomicBool,
}

impl Frame {
    fn new(page: Page) -> Frame {
        Frame {
            page: RwLock::new(page),
            pins: AtomicU32::new(1),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(true),
        }
    }
}

/// A file registered with the pool.
struct PooledFile {
    file: File,
    path: PathBuf,
    /// Logical page count — may exceed the on-disk length while dirty
    /// tail pages are still pool-resident.
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
    /// Dirty pages written back (eviction + flush).
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
    writebacks: AtomicU64,
}

/// A page-granular buffer pool over [`Page`]-formatted files.
///
/// All methods take `&self`; the pool is shared via `Arc` between every
/// `HeapFile` / `LifespanBTree` built over it and is safe to use from
/// multiple threads (one internal mutex serializes the frame table and
/// file I/O — pool I/O is off the parallel query hot path, which reads
/// through already-materialized snapshots).
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
            writebacks: self.counters.writebacks.load(Ordering::SeqCst),
            resident,
            capacity: self.capacity,
        }
    }

    /// Pages ever faulted in from `file` (0 for unknown/closed files).
    /// This is the "cold partitions were never read" witness.
    pub fn faults_for(&self, file: PoolFileId) -> u64 {
        self.lock_inner().files.get(&file.0).map_or(0, |f| f.faults)
    }

    /// Registers a new file at `path`, truncating anything there.
    pub fn create(&self, path: &Path) -> io::Result<PoolFileId> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(self.register(file, path, 0))
    }

    /// Registers an existing [`Page`]-formatted file. The length must be
    /// a whole number of pages; page checksums are verified lazily, when
    /// each page is first faulted in.
    pub fn open(&self, path: &Path) -> io::Result<PoolFileId> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
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
        let pages = len / PAGE_SIZE as u64;
        if pages > u64::from(u32::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: too many pages for a 32-bit page index", path.display()),
            ));
        }
        Ok(self.register(file, path, pages as u32))
    }

    fn register(&self, file: File, path: &Path, page_count: u32) -> PoolFileId {
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
        PoolFileId(id)
    }

    /// Unregisters `file`, dropping its frames and closing the handle.
    /// Dirty pages not yet flushed are discarded — callers that want
    /// durability run [`BufferPool::flush`] first (matching the old
    /// eager `HeapFile` semantics, where unsynced pages died with the
    /// process).
    pub fn close(&self, file: PoolFileId) {
        let mut inner = self.lock_inner();
        inner.files.remove(&file.0);
        inner.frames.retain(|&(fid, _), _| fid != file.0);
        // Stale clock keys are skipped (and dropped) by later sweeps.
    }

    /// Logical page count of `file`.
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
            frame.pins.fetch_add(1, Ordering::SeqCst);
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
            let mut buf = [0u8; PAGE_SIZE];
            f.file
                .seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))?;
            f.file.read_exact(&mut buf)?;
            let page = Page::from_bytes(buf);
            if !page.verify() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: checksum mismatch on page {page_no}", f.path.display()),
                ));
            }
            page
        };
        let frame = Arc::new(Frame::new(page));
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

    /// Appends a fresh, empty, dirty page to `file`; returns its number
    /// and a pinned guard. Fails with "heap file full" when the 32-bit
    /// page index would overflow.
    pub fn alloc(&self, file: PoolFileId) -> io::Result<(u32, PageGuard)> {
        let mut inner = self.lock_inner();
        self.make_room(&mut inner);
        let page_no = {
            let f = inner.files.get_mut(&file.0).ok_or_else(stale_handle)?;
            if f.page_count == u32::MAX {
                return Err(io::Error::other(format!(
                    "{}: heap file full (2^32 page limit reached)",
                    f.path.display()
                )));
            }
            let n = f.page_count;
            f.page_count += 1;
            n
        };
        let frame = Arc::new(Frame::new(Page::new()));
        frame.dirty.store(true, Ordering::SeqCst);
        inner.frames.insert((file.0, page_no), Arc::clone(&frame));
        inner.clock.push_back((file.0, page_no));
        Ok((page_no, PageGuard { frame }))
    }

    /// Writes every dirty resident page of `file` back (sealed), trims
    /// the file to its logical length, and fsyncs it. Frames stay
    /// resident and clean. This is the dirty-only replacement for the
    /// old rewrite-the-world `HeapFile::sync`.
    pub fn flush(&self, file: PoolFileId) -> io::Result<()> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let mut wrote = 0u64;
        for (&(fid, page_no), frame) in inner.frames.iter() {
            if fid != file.0 || !frame.dirty.load(Ordering::SeqCst) {
                continue;
            }
            let f = inner.files.get_mut(&file.0).ok_or_else(stale_handle)?;
            write_back(f, page_no, frame)?;
            wrote += 1;
        }
        let f = inner.files.get_mut(&file.0).ok_or_else(stale_handle)?;
        f.file.set_len(u64::from(f.page_count) * PAGE_SIZE as u64)?;
        f.file.sync_all()?;
        if wrote > 0 {
            self.counters.writebacks.fetch_add(wrote, Ordering::SeqCst);
            if hrdm_obs::enabled() {
                storage_obs().pool_writebacks.add(wrote);
                hrdm_obs::recorder().record(
                    hrdm_obs::EventKind::PoolWriteback,
                    format!("flush wrote {wrote} page(s)"),
                );
            }
        }
        Ok(())
    }

    /// Evicts unpinned frames until under the soft cap. If every frame
    /// is pinned the pool overcommits (grows past `capacity`) rather
    /// than deadlocking.
    fn make_room(&self, inner: &mut PoolInner) {
        let mut evicted = 0u64;
        let mut writebacks = 0u64;
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
                if frame.pins.load(Ordering::SeqCst) > 0 {
                    inner.clock.push_back(key);
                    continue;
                }
                if frame.referenced.swap(false, Ordering::SeqCst) {
                    inner.clock.push_back(key);
                    continue;
                }
                victim = Some(key);
                break;
            }
            let Some((fid, page_no)) = victim else {
                break; // everything pinned or referenced: overcommit
            };
            // Unpinned + under the pool mutex: no guard can appear, so
            // removing the frame is safe. Dirty pages go back first.
            let Some(frame) = inner.frames.remove(&(fid, page_no)) else {
                continue;
            };
            if frame.dirty.load(Ordering::SeqCst) {
                if let Some(f) = inner.files.get_mut(&fid) {
                    if write_back(f, page_no, &frame).is_err() {
                        // Write-back failed: keep the frame resident
                        // rather than losing the page; the error will
                        // resurface (with a path) on the next flush.
                        inner.frames.insert((fid, page_no), frame);
                        inner.clock.push_back((fid, page_no));
                        break;
                    }
                    writebacks += 1;
                }
            }
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
                    format!("evicted {evicted} page(s), {writebacks} written back"),
                );
            }
        }
        if writebacks > 0 {
            self.counters
                .writebacks
                .fetch_add(writebacks, Ordering::SeqCst);
            if hrdm_obs::enabled() {
                storage_obs().pool_writebacks.add(writebacks);
            }
        }
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().expect("buffer pool lock")
    }
}

/// Seals and writes one frame's page to its slot in `f`, clearing the
/// dirty bit. No fsync — callers decide durability.
fn write_back(f: &mut PooledFile, page_no: u32, frame: &Frame) -> io::Result<()> {
    let mut page = frame.page.write().expect("frame page lock");
    page.seal();
    f.file
        .seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))?;
    f.file.write_all(&page.bytes()[..])?;
    drop(page);
    frame.dirty.store(false, Ordering::SeqCst);
    Ok(())
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

/// A pinned page. The frame cannot be evicted while any guard exists;
/// dropping the guard unpins it. Obtain the page through
/// [`PageGuard::read`] / [`PageGuard::write`] — writing marks the frame
/// dirty so the pool writes it back on eviction or flush.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// Read access to the pinned page.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.page.read().expect("frame page lock")
    }

    /// Write access to the pinned page; marks the frame dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        self.frame.dirty.store(true, Ordering::SeqCst);
        self.frame.page.write().expect("frame page lock")
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("pins", &self.frame.pins.load(Ordering::SeqCst))
            .field("dirty", &self.frame.dirty.load(Ordering::SeqCst))
            .finish()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-pool-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn alloc_get_round_trip() {
        let path = tmp("round-trip");
        let pool = BufferPool::new(4);
        let f = pool.create(&path).unwrap();
        let (n0, g0) = pool.alloc(f).unwrap();
        assert_eq!(n0, 0);
        let slot = g0.write().insert(b"hello pool").unwrap();
        drop(g0);
        let g = pool.get(f, 0).unwrap();
        assert_eq!(g.read().get(slot), Some(&b"hello pool"[..]));
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0); // page was resident since alloc
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_writes_back_and_refaults() {
        let path = tmp("evict");
        let pool = BufferPool::new(2);
        let f = pool.create(&path).unwrap();
        for i in 0..6u8 {
            let (_, g) = pool.alloc(f).unwrap();
            g.write().insert(&[i; 100]).unwrap();
        }
        // Capacity 2 with 6 pages: evictions + dirty writebacks happened.
        let s = pool.stats();
        assert!(s.resident <= 2);
        assert!(s.evictions >= 4, "evictions: {}", s.evictions);
        assert!(s.writebacks >= 4, "writebacks: {}", s.writebacks);
        // Every page faults back with its data (and a valid checksum).
        for i in 0..6u8 {
            let g = pool.get(f, u32::from(i)).unwrap();
            assert_eq!(g.read().get(0), Some(&[i; 100][..]));
        }
        assert!(pool.stats().misses >= 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let path = tmp("pinned");
        let pool = BufferPool::new(2);
        let f = pool.create(&path).unwrap();
        let (_, g0) = pool.alloc(f).unwrap();
        g0.write().insert(b"pinned").unwrap();
        // Alloc way past capacity while holding g0: pool must overcommit,
        // never evict the pinned frame.
        let guards: Vec<_> = (0..8).map(|_| pool.alloc(f).unwrap()).collect();
        drop(guards);
        assert_eq!(g0.read().get(0), Some(&b"pinned"[..]));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flush_persists_and_reopen_verifies() {
        let path = tmp("flush");
        let pool = BufferPool::new(8);
        let f = pool.create(&path).unwrap();
        for i in 0..3u8 {
            let (_, g) = pool.alloc(f).unwrap();
            g.write().insert(&[i; 10]).unwrap();
        }
        pool.flush(f).unwrap();
        pool.close(f);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            3 * PAGE_SIZE as u64
        );
        let f2 = pool.open(&path).unwrap();
        assert_eq!(pool.page_count(f2).unwrap(), 3);
        for i in 0..3u8 {
            let g = pool.get(f2, u32::from(i)).unwrap();
            assert_eq!(g.read().get(0), Some(&[i; 10][..]));
        }
        assert_eq!(pool.faults_for(f2), 3);
        pool.close(f2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_detects_corruption() {
        let path = tmp("corrupt");
        let pool = BufferPool::new(8);
        let f = pool.create(&path).unwrap();
        let (_, g) = pool.alloc(f).unwrap();
        g.write().insert(b"precious").unwrap();
        drop(g);
        pool.flush(f).unwrap();
        pool.close(f);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let f2 = pool.open(&path).unwrap(); // lazy: open succeeds
        let err = pool.get(f2, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        pool.close(f2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stale_handle_fails_loudly() {
        let path = tmp("stale");
        let pool = BufferPool::new(4);
        let f = pool.create(&path).unwrap();
        pool.close(f);
        assert!(pool.get(f, 0).is_err());
        assert!(pool.alloc(f).is_err());
        assert!(pool.page_count(f).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_page_rejected() {
        let path = tmp("range");
        let pool = BufferPool::new(4);
        let f = pool.create(&path).unwrap();
        let err = pool.get(f, 7).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        pool.close(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn per_file_fault_isolation() {
        let pa = tmp("iso-a");
        let pb = tmp("iso-b");
        let pool = BufferPool::new(8);
        let a = pool.create(&pa).unwrap();
        let b = pool.create(&pb).unwrap();
        for _ in 0..2 {
            drop(pool.alloc(a).unwrap());
            drop(pool.alloc(b).unwrap());
        }
        pool.flush(a).unwrap();
        pool.flush(b).unwrap();
        pool.close(a);
        pool.close(b);
        let a2 = pool.open(&pa).unwrap();
        let b2 = pool.open(&pb).unwrap();
        drop(pool.get(a2, 0).unwrap());
        drop(pool.get(a2, 1).unwrap());
        assert_eq!(pool.faults_for(a2), 2);
        assert_eq!(pool.faults_for(b2), 0, "cold file must never fault");
        pool.close(a2);
        pool.close(b2);
        std::fs::remove_file(pa).ok();
        std::fs::remove_file(pb).ok();
    }
}

//! An on-disk B+tree keyed by (birth-chronon, position): the lifespan
//! index that lets cold partitions answer TIMESLICE pruning without
//! being resident.
//!
//! The tree is *static*: it is bulk-loaded at checkpoint time from the
//! relation's (birth, position) pairs, written once, and only ever read
//! afterwards (the next checkpoint writes a new file; clean epochs are
//! carried over as hard links, exactly like partition heaps). That
//! sidesteps split/merge machinery entirely while giving the read path
//! a real disk-resident index: a range probe faults in `height` + a few
//! leaf pages through the buffer pool, never the whole file.
//!
//! # Layout
//!
//! All pages are [`PAGE_SIZE`] bytes, written front to back by a
//! [`PageWriter`] and read through the buffer pool. The checksum bytes at
//! `[4..8)` of every page belong to those two ([`Page::seal`] as the
//! writer writes a page, verify as the pool faults it in), so the node
//! layouts below leave that range zero. The meta page is page 0, the
//! leaves follow it in key order, then each internal level; the root is
//! the last page.
//!
//! ```text
//! page 0 (meta):  [0..4)   reserved ([2..4) keeps `Page::new`'s free pointer)
//!                 [8..12)  magic "HBTX"
//!                 [12..16) version (1)
//!                 [16..20) root page
//!                 [20..24) height (0 = empty, 1 = root is a leaf)
//!                 [24..32) entry count
//!                 [32..36) leaf fanout      [36..40) internal fanout
//!
//! node header:    [0]      node type (1 = leaf, 2 = internal)
//!                 [1..3)   entry count
//!                 [4..8)   page checksum (reserved)
//!                 [8..12)  leaf: next-leaf page (0 = none); internal: 0
//!
//! leaf entry      (12 B):  birth i64 | position u32
//! internal entry  (16 B):  first_birth i64 | first_pos u32 | child u32
//! ```
//!
//! Keys are `(birth, position)` ordered lexicographically; an internal
//! entry holds the *first* key of its child, so descent picks the last
//! child whose first key is `<=` the probe.

use crate::page::{Page, PageWriter, PAGE_SIZE};
use crate::pool::{BufferPool, PoolFileId};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HBTX";
const VERSION: u32 = 1;

const NODE_HEADER: usize = 12;
const LEAF_ENTRY: usize = 12;
const INTERNAL_ENTRY: usize = 16;
const LEAF_NODE: u8 = 1;
const INTERNAL_NODE: u8 = 2;

/// Maximum entries per leaf page: (8192 - 12) / 12 = 681.
pub const LEAF_FANOUT: usize = (PAGE_SIZE - NODE_HEADER) / LEAF_ENTRY;
/// Maximum entries per internal page: (8192 - 12) / 16 = 511.
pub const INTERNAL_FANOUT: usize = (PAGE_SIZE - NODE_HEADER) / INTERNAL_ENTRY;

/// A read-only, bulk-loaded on-disk B+tree over (birth, position) keys.
pub struct LifespanBTree {
    pool: Arc<BufferPool>,
    file: PoolFileId,
    path: PathBuf,
    root: u32,
    height: u32,
    count: u64,
    leaf_fanout: usize,
    internal_fanout: usize,
}

impl LifespanBTree {
    /// Bulk-loads a tree from `entries` — sorted in place by
    /// (birth, position) — and writes it to `path` (truncating) with a
    /// [`PageWriter`], fsynced before returning. [`LifespanBTree::open`]
    /// reads it.
    pub fn build(path: &Path, entries: &mut [(i64, u32)]) -> io::Result<()> {
        Self::build_with_fanout(path, entries, LEAF_FANOUT, INTERNAL_FANOUT)
    }

    /// [`LifespanBTree::build`] with explicit fanouts, so tests can force
    /// multi-level trees from small inputs. Fanouts are clamped to
    /// `2..=` the page-layout maximum.
    pub fn build_with_fanout(
        path: &Path,
        entries: &mut [(i64, u32)],
        leaf_fanout: usize,
        internal_fanout: usize,
    ) -> io::Result<()> {
        let leaf_fanout = leaf_fanout.clamp(2, LEAF_FANOUT);
        let internal_fanout = internal_fanout.clamp(2, INTERNAL_FANOUT);
        entries.sort_unstable();
        // The shape follows from the entry count alone: page 0 is the
        // meta page, the leaves follow it left to right, then each
        // internal level in turn; the root is the last page (0 when
        // there are no entries).
        let leaves = entries.len().div_ceil(leaf_fanout);
        let (mut width, mut root, mut height) = (leaves, leaves, u32::from(leaves > 0));
        while width > 1 {
            width = width.div_ceil(internal_fanout);
            root += width;
            height += 1;
        }
        let mut out = PageWriter::create(path)?;
        let mut meta = Page::new();
        let bytes = meta.bytes_mut();
        bytes[8..12].copy_from_slice(MAGIC);
        bytes[12..16].copy_from_slice(&VERSION.to_le_bytes());
        bytes[16..20].copy_from_slice(&(root as u32).to_le_bytes());
        bytes[20..24].copy_from_slice(&height.to_le_bytes());
        bytes[24..32].copy_from_slice(&(entries.len() as u64).to_le_bytes());
        bytes[32..36].copy_from_slice(&(leaf_fanout as u32).to_le_bytes());
        bytes[36..40].copy_from_slice(&(internal_fanout as u32).to_le_bytes());
        out.append(meta)?;

        // Level 0: the leaves, each chained to the next.
        let mut level: Vec<((i64, u32), u32)> = Vec::with_capacity(leaves); // (first key, page)
        for (i, chunk) in entries.chunks(leaf_fanout).enumerate() {
            let mut page = Page::new();
            let bytes = page.bytes_mut();
            bytes[0] = LEAF_NODE;
            bytes[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            let next = if i + 1 < leaves { i + 2 } else { 0 };
            bytes[8..12].copy_from_slice(&(next as u32).to_le_bytes());
            for (i, &(birth, pos)) in chunk.iter().enumerate() {
                let at = NODE_HEADER + i * LEAF_ENTRY;
                bytes[at..at + 8].copy_from_slice(&birth.to_le_bytes());
                bytes[at + 8..at + 12].copy_from_slice(&pos.to_le_bytes());
            }
            level.push((chunk[0], out.append(page)?));
        }

        // Internal levels until a single root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(internal_fanout));
            for chunk in level.chunks(internal_fanout) {
                let mut page = Page::new();
                let bytes = page.bytes_mut();
                bytes[0] = INTERNAL_NODE;
                bytes[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                for (i, &((birth, pos), child)) in chunk.iter().enumerate() {
                    let base = NODE_HEADER + i * INTERNAL_ENTRY;
                    bytes[base..base + 8].copy_from_slice(&birth.to_le_bytes());
                    bytes[base + 8..base + 12].copy_from_slice(&pos.to_le_bytes());
                    bytes[base + 12..base + 16].copy_from_slice(&child.to_le_bytes());
                }
                next.push((chunk[0].0, out.append(page)?));
            }
            level = next;
        }
        // The meta page promised this root; a tree built otherwise must
        // not be renamed into place.
        if level.first().map_or(0, |&(_, p)| p as usize) != root {
            return Err(io::Error::other(format!(
                "{}: B+tree root is not the page its meta page names",
                path.display()
            )));
        }
        out.finish()
    }

    /// Opens an existing tree, reading only the meta page.
    pub fn open(path: &Path, pool: Arc<BufferPool>) -> io::Result<LifespanBTree> {
        let file = pool.open(path)?;
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        let meta = || {
            if pool.page_count(file)? == 0 {
                return Err(bad("missing B+tree meta page"));
            }
            let guard = pool.get(file, 0)?;
            let bytes = guard.read().bytes();
            if &bytes[8..12] != MAGIC {
                return Err(bad("bad B+tree magic"));
            }
            if u32_at(bytes, 12) != VERSION {
                return Err(bad("unsupported B+tree version"));
            }
            let fanouts = (u32_at(bytes, 32) as usize, u32_at(bytes, 36) as usize);
            if fanouts.0 < 2 || fanouts.1 < 2 || fanouts.0 > LEAF_FANOUT {
                return Err(bad("implausible B+tree fanout"));
            }
            let count = u64::from_le_bytes([
                bytes[24], bytes[25], bytes[26], bytes[27], bytes[28], bytes[29], bytes[30],
                bytes[31],
            ]);
            Ok((u32_at(bytes, 16), u32_at(bytes, 20), count, fanouts))
        };
        let (root, height, count, (leaf_fanout, internal_fanout)) =
            meta().inspect_err(|_| pool.close(file))?;
        Ok(LifespanBTree {
            pool,
            file,
            path: path.to_path_buf(),
            root,
            height,
            count,
            leaf_fanout,
            internal_fanout,
        })
    }

    /// Total (birth, position) entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tree height (0 = empty, 1 = single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The tree's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The pool handle, for per-file fault accounting in tests.
    pub fn pool_file(&self) -> PoolFileId {
        self.file
    }

    /// Positions of every entry with birth chronon in `lo..=hi`,
    /// ascending by (birth, position). Faults in one root-to-leaf path
    /// plus the leaves the range actually spans.
    pub fn range_positions(&self, lo: i64, hi: i64) -> io::Result<Vec<u32>> {
        let mut out = Vec::new();
        if self.count == 0 || lo > hi {
            return Ok(out);
        }
        let probe = (lo, 0u32);
        // Descend to the leaf that could hold the first key >= probe.
        let mut page_no = self.root;
        for _ in 1..self.height {
            let guard = self.pool.get(self.file, page_no)?;
            let page = guard.read();
            let bytes = page.bytes();
            if bytes[0] != INTERNAL_NODE {
                return Err(self.corrupt(page_no, "expected internal node"));
            }
            let n = (u16::from_le_bytes([bytes[1], bytes[2]]) as usize).min(self.internal_fanout);
            if n == 0 {
                return Err(self.corrupt(page_no, "empty internal node"));
            }
            // Last child whose first key <= probe (else the first child).
            let mut child = u32_at(bytes, NODE_HEADER + 12);
            for i in 0..n {
                let base = NODE_HEADER + i * INTERNAL_ENTRY;
                let key = (
                    i64::from_le_bytes([
                        bytes[base],
                        bytes[base + 1],
                        bytes[base + 2],
                        bytes[base + 3],
                        bytes[base + 4],
                        bytes[base + 5],
                        bytes[base + 6],
                        bytes[base + 7],
                    ]),
                    u32_at(bytes, base + 8),
                );
                if i > 0 && key > probe {
                    break;
                }
                child = u32_at(bytes, base + 12);
            }
            page_no = child;
        }
        // Walk the leaf chain while keys stay within (hi, u32::MAX).
        loop {
            let guard = self.pool.get(self.file, page_no)?;
            let page = guard.read();
            let bytes = page.bytes();
            if bytes[0] != LEAF_NODE {
                return Err(self.corrupt(page_no, "expected leaf node"));
            }
            let n = (u16::from_le_bytes([bytes[1], bytes[2]]) as usize).min(self.leaf_fanout);
            let mut past_end = false;
            for i in 0..n {
                let at = NODE_HEADER + i * LEAF_ENTRY;
                let birth = i64::from_le_bytes([
                    bytes[at],
                    bytes[at + 1],
                    bytes[at + 2],
                    bytes[at + 3],
                    bytes[at + 4],
                    bytes[at + 5],
                    bytes[at + 6],
                    bytes[at + 7],
                ]);
                if birth > hi {
                    past_end = true;
                    break;
                }
                if birth >= lo {
                    out.push(u32_at(bytes, at + 8));
                }
            }
            if past_end {
                break;
            }
            let next = u32_at(bytes, 8);
            if next == 0 {
                break;
            }
            page_no = next;
        }
        Ok(out)
    }

    fn corrupt(&self, page_no: u32, msg: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: page {page_no}: {msg}", self.path.display()),
        )
    }
}

impl std::fmt::Debug for LifespanBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifespanBTree")
            .field("path", &self.path)
            .field("count", &self.count)
            .field("height", &self.height)
            .finish()
    }
}

impl Drop for LifespanBTree {
    fn drop(&mut self) {
        self.pool.close(self.file);
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-btx-{}-{name}", std::process::id()));
        p
    }

    fn reference_range(entries: &[(i64, u32)], lo: i64, hi: i64) -> Vec<u32> {
        let mut v: Vec<(i64, u32)> = entries
            .iter()
            .copied()
            .filter(|&(b, _)| b >= lo && b <= hi)
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, p)| p).collect()
    }

    #[test]
    fn empty_tree_round_trip() {
        let path = tmp("empty");
        let pool = BufferPool::new(8);
        LifespanBTree::build(&path, &mut Vec::new()).unwrap();
        let t = LifespanBTree::open(&path, pool).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.range_positions(i64::MIN, i64::MAX).unwrap(), vec![]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.range_positions(0, 100).unwrap(), vec![]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn single_leaf_ranges() {
        let path = tmp("leaf");
        let pool = BufferPool::new(8);
        let mut entries: Vec<(i64, u32)> = (0..100).map(|i| (i64::from(i) * 3, i)).collect();
        let reference = entries.clone();
        LifespanBTree::build(&path, &mut entries).unwrap();
        let t = LifespanBTree::open(&path, pool).unwrap();
        assert_eq!(t.height(), 1);
        for (lo, hi) in [(0, 297), (5, 50), (-10, -1), (298, 400), (30, 30)] {
            assert_eq!(
                t.range_positions(lo, hi).unwrap(),
                reference_range(&reference, lo, hi),
                "range {lo}..={hi}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn multi_level_tree_matches_reference() {
        let path = tmp("multi");
        let pool = BufferPool::new(16);
        // Duplicate births, shuffled positions; tiny fanouts force
        // height >= 3 from 500 entries.
        let mut entries: Vec<(i64, u32)> =
            (0..500u32).map(|i| (i64::from(i % 50), 499 - i)).collect();
        let reference = entries.clone();
        LifespanBTree::build_with_fanout(&path, &mut entries, 4, 3).unwrap();
        let t = LifespanBTree::open(&path, Arc::clone(&pool)).unwrap();
        assert!(t.height() >= 3, "height: {}", t.height());
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (0, 49),
            (10, 20),
            (49, 49),
            (50, 100),
            (-5, 0),
        ] {
            assert_eq!(
                t.range_positions(lo, hi).unwrap(),
                reference_range(&reference, lo, hi),
                "range {lo}..={hi}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reopen_under_tiny_pool() {
        let path = tmp("reopen");
        let mut entries: Vec<(i64, u32)> = (0..2000u32).map(|i| (i64::from(i / 7), i)).collect();
        let reference = entries.clone();
        LifespanBTree::build_with_fanout(&path, &mut entries, 8, 4).unwrap();
        // Read back through a 2-frame pool: every probe faults its path.
        let pool = BufferPool::new(2);
        let t = LifespanBTree::open(&path, Arc::clone(&pool)).unwrap();
        assert_eq!(t.len(), 2000);
        for (lo, hi) in [(0, 285), (100, 101), (0, 0), (285, 285), (290, 400)] {
            assert_eq!(
                t.range_positions(lo, hi).unwrap(),
                reference_range(&reference, lo, hi),
                "range {lo}..={hi}"
            );
        }
        assert!(pool.stats().evictions > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        let pool = BufferPool::new(4);
        // Page 0 is all zeros: the pool's checksum check happens to pass
        // only for properly sealed pages, so this fails either at fault
        // (bad checksum) or at magic validation.
        assert!(LifespanBTree::open(&path, pool).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn extreme_key_ranges() {
        let path = tmp("extreme");
        let pool = BufferPool::new(8);
        let mut entries = vec![(i64::MIN, 0u32), (-1, 1), (0, 2), (1, 3), (i64::MAX, 4)];
        let reference = entries.clone();
        LifespanBTree::build_with_fanout(&path, &mut entries, 2, 2).unwrap();
        let t = LifespanBTree::open(&path, pool).unwrap();
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (i64::MIN, i64::MIN),
            (i64::MAX, i64::MAX),
            (-1, 1),
            (2, i64::MAX),
        ] {
            assert_eq!(
                t.range_positions(lo, hi).unwrap(),
                reference_range(&reference, lo, hi),
                "range {lo}..={hi}"
            );
        }
        // Inverted range is empty, not an error.
        assert_eq!(t.range_positions(10, -10).unwrap(), vec![]);
        std::fs::remove_file(path).ok();
    }
}

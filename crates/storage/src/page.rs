//! Fixed-size slotted pages, and the one writer of page files.
//!
//! The classical layout: a header and slot directory grow from the front,
//! record cells grow from the back. Page files — relation heaps and
//! B+trees — are written once, front to back, by [`PageWriter`], which
//! seals every page as it writes it, and are only ever read afterwards,
//! through the buffer pool, which verifies each page as it faults it in.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Page header bytes: slot_count: u16, free_ptr: u16, checksum: u32.
pub const PAGE_HEADER: usize = 8;
/// Slot directory entry bytes: offset: u16, len: u16.
pub const PAGE_SLOT: usize = 4;
/// Largest record an empty page can hold: everything past the header
/// minus the one slot-directory entry the record needs. This is *the*
/// capacity constant — heap-level oversize guards must use it rather
/// than re-deriving an approximation.
pub const MAX_RECORD: usize = PAGE_SIZE - PAGE_HEADER - PAGE_SLOT;

const HEADER: usize = PAGE_HEADER;
const SLOT: usize = PAGE_SLOT;

/// Index of a record within a page.
pub type SlotId = u16;

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_free_ptr(PAGE_SIZE as u16);
        p
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_slot_count(&mut self, v: u16) {
        self.data[0..2].copy_from_slice(&v.to_le_bytes());
    }

    fn free_ptr(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_ptr(&mut self, v: u16) {
        self.data[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, id: SlotId) -> (u16, u16) {
        let base = HEADER + id as usize * SLOT;
        (
            u16::from_le_bytes([self.data[base], self.data[base + 1]]),
            u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]),
        )
    }

    fn set_slot(&mut self, id: SlotId, offset: u16, len: u16) {
        let base = HEADER + id as usize * SLOT;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Free bytes available for one more record (including its slot).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() as usize * SLOT;
        (self.free_ptr() as usize).saturating_sub(dir_end + SLOT)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slot_count() as usize
    }

    /// Are there no slots at all?
    pub fn is_empty(&self) -> bool {
        self.slot_count() == 0
    }

    /// Inserts a record; returns its slot, or `None` when it does not fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<SlotId> {
        if record.is_empty() || record.len() > u16::MAX as usize {
            return None;
        }
        if self.free_space() < record.len() {
            return None;
        }
        let id = self.slot_count();
        let offset = self.free_ptr() as usize - record.len();
        self.data[offset..offset + record.len()].copy_from_slice(record);
        self.set_slot(id, offset as u16, record.len() as u16);
        self.set_slot_count(id + 1);
        self.set_free_ptr(offset as u16);
        Some(id)
    }

    /// The record in `slot`, or `None` for an out-of-range slot or one of
    /// zero length (no writer makes one: records are never empty).
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (offset, len) = self.slot(slot);
        if len == 0 {
            return None;
        }
        Some(&self.data[offset as usize..offset as usize + len as usize])
    }

    /// Iterates the records as `(slot, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |id| self.get(id).map(|r| (id, r)))
    }

    /// CRC-32 of the page with its checksum field read as zeros, computed
    /// in place.
    fn checksum(&self) -> u32 {
        crc32_parts(&[&self.data[..4], &[0; 4], &self.data[8..]])
    }

    /// Stamps the header checksum (CRC-32 of everything but the checksum
    /// field). Call before writing the page out.
    pub fn seal(&mut self) {
        let crc = self.checksum();
        self.data[4..8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Verifies the header checksum set by [`Page::seal`].
    pub fn verify(&self) -> bool {
        let stored = u32::from_le_bytes([self.data[4], self.data[5], self.data[6], self.data[7]]);
        self.checksum() == stored
    }

    /// The raw page bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw page bytes, for callers that impose their own layout on
    /// a page (the on-disk B+tree nodes). Bytes `[4..8)` remain reserved
    /// for the [`Page::seal`] checksum; raw-layout users leave them zero
    /// and let [`PageWriter`] seal the page and the pool verify it.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

/// Writes one page file, front to back, once: each page is [`Page::seal`]ed
/// as it is written, and [`PageWriter::finish`] fsyncs the file. Every
/// error names the file.
///
/// Only the file's *pages* are made durable, not its directory entry: a
/// checkpoint writes its files under `.tmp` names, renames them, and fsyncs
/// the directory once for all of them before its commit point.
pub struct PageWriter {
    file: File,
    path: PathBuf,
    /// Pages written so far.
    pages: u32,
    /// The heap page [`PageWriter::push`] is filling, not yet written.
    tail: Option<Page>,
}

impl PageWriter {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> io::Result<PageWriter> {
        Ok(PageWriter {
            file: File::create(path).map_err(|e| with_path(path, e))?,
            path: path.to_path_buf(),
            pages: 0,
            tail: None,
        })
    }

    /// Seals `page` and writes it as the next page; returns its number.
    /// A file is written by `append` (raw-layout pages) or by
    /// [`PageWriter::push`] (heap records), not both: a page `push` is
    /// still filling would land after the appended one.
    pub fn append(&mut self, mut page: Page) -> io::Result<u32> {
        let page_no = self.pages;
        if page_no == u32::MAX {
            let full = io::Error::other("page file full (2^32 page limit reached)");
            return Err(with_path(&self.path, full));
        }
        page.seal();
        self.file
            .write_all(page.bytes())
            .map_err(|e| with_path(&self.path, e))?;
        self.pages += 1;
        Ok(page_no)
    }

    /// Appends a heap record: to the page being filled when it fits there,
    /// else to a fresh page, once the full one is written out. A record
    /// must be non-empty and at most [`MAX_RECORD`] bytes, the capacity of
    /// an empty page.
    pub fn push(&mut self, record: &[u8]) -> io::Result<()> {
        if let Some(page) = &mut self.tail {
            if page.insert(record).is_some() {
                return Ok(());
            }
        }
        let mut fresh = Page::new();
        if fresh.insert(record).is_none() {
            let why = match record.len() {
                0 => "empty records are not representable".to_string(),
                n => format!("record of {n} bytes exceeds page capacity ({MAX_RECORD})"),
            };
            let e = io::Error::new(io::ErrorKind::InvalidInput, why);
            return Err(with_path(&self.path, e));
        }
        if let Some(full) = self.tail.replace(fresh) {
            self.append(full)?;
        }
        Ok(())
    }

    /// Writes the page [`PageWriter::push`] was filling, so the next record
    /// starts a fresh page; returns the pages written so far. A checkpoint
    /// ends each partition's run of pages this way.
    pub fn end_run(&mut self) -> io::Result<u32> {
        if let Some(page) = self.tail.take() {
            self.append(page)?;
        }
        Ok(self.pages)
    }

    /// Writes the page [`PageWriter::push`] was filling, then fsyncs the
    /// file.
    pub fn finish(mut self) -> io::Result<()> {
        self.end_run()?;
        self.file.sync_all().map_err(|e| with_path(&self.path, e))
    }
}

/// `e`, its message prefixed with `path`.
pub(crate) fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Page {{ slots: {}, free: {} }}",
            self.slot_count(),
            self.free_space()
        )
    }
}

/// Table-driven CRC-32 (IEEE), eight bytes per step (slicing-by-8):
/// every page read at open and every page sealed at checkpoint passes
/// through here, so the byte-at-a-time loop was a measurable share of
/// recovery time.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// [`crc32`] of the concatenation of `parts`.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    /// `TABLES[k][b]`: the CRC of byte `b` followed by `k` zero bytes.
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
                i += 1;
            }
            k += 1;
        }
        t
    }
    // A `static`, not a `const`: unoptimized builds copy a `const` array
    // (8 KiB) at every use, four times per eight bytes hashed.
    static TABLES: [[u32; 256]; 8] = tables();
    let mut crc = !0u32;
    for data in parts {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][c[4] as usize]
                ^ TABLES[2][c[5] as usize]
                ^ TABLES[1][c[6] as usize]
                ^ TABLES[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn rejects_empty_and_oversized() {
        let mut p = Page::new();
        assert!(p.insert(b"").is_none());
        let big = vec![0u8; PAGE_SIZE];
        assert!(p.insert(&big).is_none());
    }

    #[test]
    fn fills_up_and_reports_no_space() {
        let mut p = Page::new();
        let rec = [7u8; 1000];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8 records × (1000 + 4 slot bytes) + header ≈ 8040 < 8192.
        assert_eq!(n, 8);
        assert!(p.free_space() < 1000);
    }

    #[test]
    fn out_of_range_slots() {
        let p = Page::new();
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(99), None);
    }

    #[test]
    fn seal_and_verify() {
        let mut p = Page::new();
        p.insert(b"persistent data").unwrap();
        p.seal();
        assert!(p.verify());
        // Corrupt one byte: verification fails.
        p.bytes_mut()[PAGE_SIZE - 1] ^= 0xff;
        assert!(!p.verify());
    }

    #[test]
    fn round_trip_through_bytes() {
        let mut p = Page::new();
        p.insert(b"alpha").unwrap();
        p.insert(b"beta").unwrap();
        p.seal();
        let mut q = Page::new();
        q.bytes_mut().copy_from_slice(p.bytes());
        assert!(q.verify());
        assert_eq!(q.get(0), Some(&b"alpha"[..]));
        assert_eq!(q.get(1), Some(&b"beta"[..]));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE reference value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The eight-bytes-per-step loop equals the bit-at-a-time definition
    /// at every length and alignment of the tail.
    #[test]
    fn crc32_matches_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..200u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn record_exactly_at_capacity_fits() {
        let mut p = Page::new();
        let rec = vec![0xabu8; MAX_RECORD];
        let slot = p.insert(&rec).expect("MAX_RECORD must fit an empty page");
        assert_eq!(p.get(slot), Some(&rec[..]));
        assert_eq!(p.free_space(), 0);
        // One byte more than capacity must be refused.
        let mut q = Page::new();
        assert!(q.insert(&vec![0u8; MAX_RECORD + 1]).is_none());
    }

    #[test]
    fn slot_directory_growth_collides_with_free_pointer() {
        // Tiny records: the slot directory (front) and cells (back) must
        // meet without overlapping. 1-byte record costs 1 + SLOT bytes.
        let mut p = Page::new();
        let mut n = 0usize;
        while p.insert(&[n as u8]).is_some() {
            n += 1;
        }
        assert_eq!(n, (PAGE_SIZE - HEADER) / (1 + SLOT));
        // Directory end never crosses the free pointer.
        let dir_end = HEADER + p.len() * SLOT;
        assert!(dir_end <= p.free_ptr() as usize);
        // Every record still reads back intact.
        for id in 0..n {
            assert_eq!(p.get(id as SlotId), Some(&[id as u8][..]));
        }
    }

    #[test]
    fn verify_fails_after_post_seal_mutation() {
        let mut p = Page::new();
        p.insert(b"stable").unwrap();
        p.seal();
        assert!(p.verify());
        // Mutating through the normal API after seal invalidates the CRC.
        p.insert(b"sneaky").unwrap();
        assert!(!p.verify());
    }
}

//! A write-ahead log for incremental durability.
//!
//! [`crate::Database::save`] rewrites whole heap files; the WAL is its
//! incremental companion: an attached [`crate::Database`] (see
//! [`crate::Database::open`]) appends every mutation as a checksummed,
//! fsync'd record before acknowledging it, and [`Wal::replay`] restores the
//! sequence after a crash. Torn tails (a partially-written final record)
//! are detected by the per-record CRC and truncated away — the classical
//! recovery contract. A record that passes its CRC but does not decode is
//! not a torn tail: replay refuses the log rather than cut it there. A
//! checkpoint rotates to a fresh log (see the epoch protocol in
//! [`crate::Database::checkpoint`]).
//!
//! Record layout: `len: u32 | payload | crc32(payload): u32`.
//!
//! ## Group-commit batch frames
//!
//! [`Wal::append_batch`] writes a **multi-record batch frame**: every record
//! keeps its own `len | payload | crc` framing, but the whole batch is
//! assembled into one buffer, written with a single `write` and made durable
//! with a single fsync. This is the storage half of group commit — `k`
//! concurrent writers pay one fsync instead of `k`.
//!
//! Because each record in the frame is individually checksummed, replay
//! needs no batch awareness: a crash mid-batch leaves a clean **prefix** of
//! the batch on disk (the torn record is detected by its CRC and truncated
//! away). That prefix is exactly the recovery contract group commit needs —
//! no record of the batch was acknowledged before the whole frame was
//! fsync'd, so recovering a prefix of it never loses an acknowledged write,
//! and recovered state is always prefix-consistent with commit order.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::database::{io_with_path, DbError};
use crate::page::crc32;
use hrdm_core::{Attribute, HistoricalDomain, Relation, Scheme, Tuple};
use hrdm_time::Chronon;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Record tags (named so encode and decode cannot drift apart).
const TAG_INSERT: u8 = 1;
const TAG_PUT_RELATION: u8 = 5;

/// One logged mutation.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// A relation was created with the given scheme.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Its scheme.
        scheme: Scheme,
    },
    /// A tuple was inserted.
    Insert {
        /// Target relation.
        relation: String,
        /// The tuple.
        tuple: Tuple,
    },
    /// An attribute was added (schema evolution).
    AddAttribute {
        /// Target relation.
        relation: String,
        /// New attribute.
        attribute: Attribute,
        /// Its domain.
        domain: HistoricalDomain,
        /// Lifespan start.
        from: Chronon,
        /// Lifespan end.
        to: Chronon,
    },
    /// An attribute was dropped as of a chronon (schema evolution).
    DropAttribute {
        /// Target relation.
        relation: String,
        /// Dropped attribute.
        attribute: Attribute,
        /// Drop time.
        at: Chronon,
    },
    /// A dropped attribute was re-added over a period (schema evolution).
    ReAddAttribute {
        /// Target relation.
        relation: String,
        /// Re-added attribute.
        attribute: Attribute,
        /// First chronon of the new period.
        from: Chronon,
        /// Last chronon of the new period.
        to: Chronon,
    },
    /// A relation's contents were replaced wholesale (e.g. with a query
    /// result). Carries the replacement's scheme so the record is
    /// self-describing on replay; `Database::put_relation` guarantees it
    /// equals the catalog scheme at log time (divergent contents could
    /// not survive a checkpoint + open round trip).
    PutRelation {
        /// Target relation.
        relation: String,
        /// The replacement contents.
        contents: Relation,
    },
}

impl WalRecord {
    /// The relation whose stored tuples this record re-derives: a
    /// wholesale replacement, or a schema evolution, which brings every
    /// tuple under the new scheme. `None` for a creation or an insert,
    /// which leave the stored tuples as they are.
    pub(crate) fn rederived_relation(&self) -> Option<&str> {
        match self {
            WalRecord::CreateRelation { .. } | WalRecord::Insert { .. } => None,
            WalRecord::AddAttribute { relation, .. }
            | WalRecord::DropAttribute { relation, .. }
            | WalRecord::ReAddAttribute { relation, .. }
            | WalRecord::PutRelation { relation, .. } => Some(relation),
        }
    }

    /// The record's encoded payload bytes — what one frame of the log (or
    /// of a batch frame) carries between its length prefix and its CRC.
    pub(crate) fn payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish()
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            WalRecord::CreateRelation { name, scheme } => {
                e.put_u8(0);
                e.put_str(name);
                e.put_scheme(scheme);
            }
            WalRecord::Insert { relation, tuple } => {
                e.put_u8(TAG_INSERT);
                e.put_str(relation);
                e.put_tuple(tuple);
            }
            WalRecord::AddAttribute {
                relation,
                attribute,
                domain,
                from,
                to,
            } => {
                e.put_u8(2);
                e.put_str(relation);
                e.put_str(attribute.name());
                e.put_domain(domain);
                e.put_chronon(*from);
                e.put_chronon(*to);
            }
            WalRecord::DropAttribute {
                relation,
                attribute,
                at,
            } => {
                e.put_u8(3);
                e.put_str(relation);
                e.put_str(attribute.name());
                e.put_chronon(*at);
            }
            WalRecord::ReAddAttribute {
                relation,
                attribute,
                from,
                to,
            } => {
                e.put_u8(4);
                e.put_str(relation);
                e.put_str(attribute.name());
                e.put_chronon(*from);
                e.put_chronon(*to);
            }
            WalRecord::PutRelation { relation, contents } => {
                e.put_u8(TAG_PUT_RELATION);
                e.put_str(relation);
                e.put_relation(contents);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<WalRecord, CodecError> {
        match d.get_u8()? {
            0 => Ok(WalRecord::CreateRelation {
                name: d.get_str()?.to_string(),
                scheme: d.get_scheme()?,
            }),
            TAG_INSERT => Ok(WalRecord::Insert {
                relation: d.get_str()?.to_string(),
                tuple: d.get_tuple()?,
            }),
            2 => Ok(WalRecord::AddAttribute {
                relation: d.get_str()?.to_string(),
                attribute: Attribute::new(d.get_str()?),
                domain: d.get_domain()?,
                from: d.get_chronon()?,
                to: d.get_chronon()?,
            }),
            3 => Ok(WalRecord::DropAttribute {
                relation: d.get_str()?.to_string(),
                attribute: Attribute::new(d.get_str()?),
                at: d.get_chronon()?,
            }),
            4 => Ok(WalRecord::ReAddAttribute {
                relation: d.get_str()?.to_string(),
                attribute: Attribute::new(d.get_str()?),
                from: d.get_chronon()?,
                to: d.get_chronon()?,
            }),
            TAG_PUT_RELATION => Ok(WalRecord::PutRelation {
                relation: d.get_str()?.to_string(),
                contents: d.get_relation()?,
            }),
            tag => Err(CodecError::BadTag("WalRecord", tag)),
        }
    }
}

/// An append-only log file.
pub struct Wal {
    file: File,
}

impl Wal {
    /// Opens (or creates) the log at `path`, positioned for appending.
    pub fn open(path: &Path) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal { file })
    }

    /// Appends a record and fsyncs.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut e = Encoder::new();
        record.encode(&mut e);
        self.append_payload(e.finish())
    }

    /// The current end-of-log offset — where the next append will land.
    /// Captured before a batch append so a failed append can be cut back
    /// off the log ([`Wal::rollback_to`]).
    pub fn offset(&mut self) -> io::Result<u64> {
        self.file.seek(SeekFrom::End(0))
    }

    /// Cuts the log back to `offset`, discarding whatever a failed append
    /// left past it (partially- or even fully-written frames of a batch
    /// none of whose records was acknowledged).
    pub fn rollback_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.set_len(offset)?;
        self.file.sync_data()
    }

    /// Appends a **multi-record batch frame**: every payload is framed
    /// (`len | payload | crc`) into one buffer, written with a single
    /// `write`, and made durable with a single fsync — the group-commit
    /// write path. An empty batch is a no-op (no write, no fsync).
    ///
    /// Callers must not acknowledge any record of the batch before this
    /// returns `Ok`; under that contract a crash can only ever lose a
    /// *suffix* of unacknowledged records (see the module docs).
    pub fn append_batch(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        let observing = hrdm_obs::enabled();
        let append_started = observing.then(std::time::Instant::now);
        let total: usize = payloads.iter().map(|p| p.len() + 8).sum();
        let mut frame = Vec::with_capacity(total);
        for payload in payloads {
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(payload);
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        self.file.write_all(&frame)?;
        let fsync_started = observing.then(std::time::Instant::now);
        let result = self.file.sync_data();
        if let (Some(appended), Some(fsynced)) = (append_started, fsync_started) {
            let obs = crate::obs::storage_obs();
            obs.wal_append_ns
                .record_duration(fsynced.duration_since(appended));
            obs.wal_fsync_ns.record_duration(fsynced.elapsed());
        }
        result
    }

    /// Frames (`len | payload | crc`), writes, and fsyncs one payload.
    fn append_payload(&mut self, payload: Vec<u8>) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(&payload))
    }

    /// Replays every intact record from the start of the log. A torn or
    /// corrupted tail ends the replay (and is reported via the returned
    /// `truncated_at` offset so the caller can truncate the file). A frame
    /// whose length is 0 is such a tail: no record has an empty payload,
    /// and a zero-filled tail passes the CRC. A non-empty record that
    /// passes its CRC but does not decode is a [`DbError::BadFile`] naming
    /// the log and the record's byte offset.
    pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, Option<u64>), DbError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut file| file.read_to_end(&mut bytes))
            .map_err(|e| io_with_path(path, e))?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= bytes.len() {
            let Some(len @ 1..) = le_u32(&bytes, pos) else {
                return Ok((records, Some(pos as u64))); // torn tail
            };
            let len = len as usize;
            let start = pos + 4;
            let end = start + len;
            if end + 4 > bytes.len() {
                return Ok((records, Some(pos as u64))); // torn tail
            }
            let payload = &bytes[start..end];
            let Some(stored) = le_u32(&bytes, end) else {
                return Ok((records, Some(pos as u64))); // torn tail
            };
            if crc32(payload) != stored {
                return Ok((records, Some(pos as u64))); // corrupted record
            }
            let record = WalRecord::decode(&mut Decoder::new(payload)).map_err(|e| {
                DbError::BadFile(format!(
                    "{}: record at byte {pos} passes its checksum but does not decode: {e}",
                    path.display()
                ))
            })?;
            records.push(record);
            pos = end + 4;
        }
        let truncated = if pos == bytes.len() {
            None
        } else {
            Some(pos as u64)
        };
        Ok((records, truncated))
    }

    /// Truncates the log at `offset` (recovery after a torn tail).
    pub fn truncate(path: &Path, offset: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(offset)?;
        file.sync_all()
    }

    /// Creates (or truncates) an **empty**, fsync'd log at `path` — the
    /// fresh log a checkpoint installs for the next epoch.
    pub fn create_empty(path: &Path) -> io::Result<()> {
        let file = File::create(path)?;
        file.set_len(0)?;
        file.sync_all()
    }
}

/// `u32::from_le_bytes` over `bytes[at..at + 4]`; `None` when the log is
/// shorter (treated by replay as a torn tail).
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{TemporalValue, Value, ValueKind};
    use hrdm_time::Lifespan;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hrdm-wal-{}-{name}", std::process::id()));
        p
    }

    fn scheme() -> Scheme {
        let era = Lifespan::interval(0, 50);
        Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        let s = scheme();
        let life = Lifespan::interval(0, 10);
        let t = Tuple::builder(life.clone())
            .constant("K", 1i64)
            .value("V", TemporalValue::constant(&life, Value::Int(9)))
            .finish(&s)
            .unwrap();
        vec![
            WalRecord::CreateRelation {
                name: "r".into(),
                scheme: s,
            },
            WalRecord::Insert {
                relation: "r".into(),
                tuple: t,
            },
            WalRecord::AddAttribute {
                relation: "r".into(),
                attribute: Attribute::new("W"),
                domain: HistoricalDomain::int(),
                from: Chronon::new(0),
                to: Chronon::new(50),
            },
            WalRecord::DropAttribute {
                relation: "r".into(),
                attribute: Attribute::new("V"),
                at: Chronon::new(25),
            },
            WalRecord::ReAddAttribute {
                relation: "r".into(),
                attribute: Attribute::new("V"),
                from: Chronon::new(30),
                to: Chronon::new(50),
            },
            WalRecord::PutRelation {
                relation: "r".into(),
                contents: {
                    let s = scheme();
                    let life = Lifespan::interval(2, 8);
                    let t = Tuple::builder(life.clone())
                        .constant("K", 7i64)
                        .value("V", TemporalValue::constant(&life, Value::Int(1)))
                        .finish(&s)
                        .unwrap();
                    Relation::with_tuples(s, vec![t]).unwrap()
                },
            },
        ]
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let records = sample_records();
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let (replayed, truncated) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(truncated, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_recoverable() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let records = sample_records();
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        // Tear the last record in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let torn_at = full - 5;
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(torn_at).unwrap();
        }
        let (replayed, truncated) = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), records.len() - 1);
        let offset = truncated.expect("torn tail reported");
        // Truncate and append again: the log is healthy.
        Wal::truncate(&path, offset).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&records[records.len() - 1]).unwrap();
        }
        let (replayed, truncated) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(truncated, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_stops_replay() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &sample_records() {
                wal.append(r).unwrap();
            }
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (replayed, truncated) = Wal::replay(&path).unwrap();
        assert!(replayed.len() < sample_records().len());
        assert!(truncated.is_some());
        std::fs::remove_file(&path).ok();
    }

    /// A batch frame replays record-for-record identically to individual
    /// appends — replay needs no batch awareness.
    #[test]
    fn batch_frame_replays_like_individual_appends() {
        let batched = tmp("batched");
        let single = tmp("single");
        std::fs::remove_file(&batched).ok();
        std::fs::remove_file(&single).ok();
        let records = sample_records();
        {
            let mut wal = Wal::open(&batched).unwrap();
            let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::payload).collect();
            wal.append_batch(&payloads).unwrap();
            wal.append_batch(&[]).unwrap(); // empty batch: no-op
        }
        {
            let mut wal = Wal::open(&single).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        // Byte-identical logs, identical replay.
        assert_eq!(
            std::fs::read(&batched).unwrap(),
            std::fs::read(&single).unwrap()
        );
        let (replayed, truncated) = Wal::replay(&batched).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(truncated, None);
        std::fs::remove_file(&batched).ok();
        std::fs::remove_file(&single).ok();
    }

    /// A crash mid-batch leaves a clean prefix: every cut point of the
    /// batch frame recovers some prefix of its records, never a subset
    /// with holes and never garbage.
    #[test]
    fn torn_batch_recovers_a_prefix_at_every_cut() {
        let path = tmp("torn-batch");
        std::fs::remove_file(&path).ok();
        let records = sample_records();
        let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::payload).collect();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_batch(&payloads).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (replayed, _) = Wal::replay(&path).unwrap();
            assert!(replayed.len() <= records.len());
            assert_eq!(
                replayed,
                records[..replayed.len()],
                "cut at {cut} must recover a prefix"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmp("empty");
        std::fs::remove_file(&path).ok();
        let _ = Wal::open(&path).unwrap();
        let (replayed, truncated) = Wal::replay(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(truncated, None);
        std::fs::remove_file(&path).ok();
    }
}

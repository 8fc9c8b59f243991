//! Write-ahead log for sub-commit durability of the update pipeline.
//!
//! The segmented pipeline of DESIGN §4.13 acknowledges an `add` the
//! moment it is staged — but staged documents lived only in memory until
//! the next `commit` sealed them into a segment. This module closes that
//! window: every accepted mutation is framed into an append-only log
//! (`dir/wal.log`) *before* it is applied, and [`UpdatableXRank::open`]
//! replays the log after loading the published manifest, so a process
//! kill at any point between accept and publish recovers every
//! acknowledged mutation (under [`SyncPolicy::Always`];
//! [`SyncPolicy::GroupCommit`] trades a bounded loss window for fewer
//! fsyncs).
//!
//! On-disk format — a fixed header followed by CRC32-framed records:
//!
//! ```text
//! "XRKW" <version:u32 LE>                          header (8 bytes)
//! <len:u32 LE> <crc:u32 LE> <kind:u8> <payload…>   one frame per record
//! ```
//!
//! `len` covers `kind + payload`; `crc` is the CRC32 of those same bytes.
//! Replay walks frames until the first incomplete or damaged one — a torn
//! tail (crash mid-append) or a flipped bit silently ends the log there,
//! losing at most the records at and past the damage, never panicking and
//! never resurrecting garbage.
//!
//! The log is *truncated by checkpoint*, not by ftruncate games: once a
//! publish has made the log's effects durable in the manifest layout, the
//! pipeline rewrites the log to hold exactly the still-staged documents
//! (write `wal.log.tmp`, fsync, rename, fsync dir). A crash mid-rewrite
//! leaves the old log, and replay is idempotent, so the worst case is
//! replaying work that was already published.
//!
//! [`UpdatableXRank::open`]: crate::UpdatableXRank::open

use crate::snapshot::DocSource;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xrank_storage::crc32;
use xrank_storage::wire::{get_str, put_str};

/// The log file inside a durable pipeline directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// Checkpoint staging name. Ends in `.tmp` on purpose: a rewrite stranded
/// by a crash is garbage-collected with every other tmp file at the next
/// open.
const WAL_TMP: &str = "wal.log.tmp";

const WAL_MAGIC: &[u8; 4] = b"XRKW";
const WAL_VERSION: u32 = 1;
/// Magic + version.
const HEADER_LEN: usize = 8;
/// Per-frame len + crc prefix.
const FRAME_PREFIX: usize = 8;

/// When write-ahead-log appends reach the device
/// ([`crate::WalConfig::sync`]).
///
/// The policy bounds what a process kill (not a clean error return) can
/// lose: with `Always` nothing acknowledged is ever lost; with
/// `GroupCommit` at most the appends of the last interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: an acknowledged mutation is durable
    /// before the call returns. The default.
    Always,
    /// Batch fsyncs: an append fsyncs only when this much time has passed
    /// since the last sync — one device flush covers the whole group of
    /// appends since, amortizing the cost under write bursts.
    GroupCommit(Duration),
}

/// Write-ahead-log configuration ([`crate::EngineConfig::wal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Master switch. Disabled, the pipeline behaves exactly as before
    /// the log existed: staged documents die with the process.
    pub enabled: bool,
    /// When appends reach the device.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { enabled: true, sync: SyncPolicy::Always }
    }
}

/// One logged mutation, in acceptance order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// An accepted `add_xml` (a replace is the same record: replay
    /// re-derives the tombstone against the published snapshot).
    AddXml {
        /// Document URI.
        uri: String,
        /// Raw source (validated before the record was accepted).
        text: String,
    },
    /// An accepted `add_html`.
    AddHtml {
        /// Document URI.
        uri: String,
        /// Raw source.
        text: String,
    },
    /// An accepted `delete`.
    Delete {
        /// Document URI.
        uri: String,
    },
}

const KIND_ADD_XML: u8 = 1;
const KIND_ADD_HTML: u8 = 2;
const KIND_DELETE: u8 = 3;

impl WalRecord {
    /// Serializes `kind + payload` (the CRC-covered frame body).
    fn encode_body(&self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        match self {
            WalRecord::AddXml { uri, text } => {
                body.push(KIND_ADD_XML);
                put_str(&mut body, uri)?;
                put_str(&mut body, text)?;
            }
            WalRecord::AddHtml { uri, text } => {
                body.push(KIND_ADD_HTML);
                put_str(&mut body, uri)?;
                put_str(&mut body, text)?;
            }
            WalRecord::Delete { uri } => {
                body.push(KIND_DELETE);
                put_str(&mut body, uri)?;
            }
        }
        Ok(body)
    }

    /// Parses a frame body. `None` on any structural damage.
    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let (&kind, mut rest) = body.split_first()?;
        let rec = match kind {
            KIND_ADD_XML => WalRecord::AddXml {
                uri: get_str(&mut rest).ok()?,
                text: get_str(&mut rest).ok()?,
            },
            KIND_ADD_HTML => WalRecord::AddHtml {
                uri: get_str(&mut rest).ok()?,
                text: get_str(&mut rest).ok()?,
            },
            KIND_DELETE => WalRecord::Delete { uri: get_str(&mut rest).ok()? },
            _ => return None,
        };
        rest.is_empty().then_some(rec)
    }
}

/// Deterministic append-fault injection (the WAL analogue of the storage
/// crate's `FaultStore` rules): after `after` more successful appends,
/// the next `times` appends fail with ENOSPC or EIO before touching the
/// file. Test hook; armed through
/// [`crate::UpdatableXRank::wal_inject_fault`].
#[derive(Debug, Clone, Copy)]
pub struct WalFault {
    /// Successful appends remaining before the fault fires.
    pub after: u64,
    /// How many consecutive appends fail once it fires.
    pub times: u64,
    /// Report ENOSPC (raw os error 28) instead of a generic EIO.
    pub no_space: bool,
}

/// The open write-ahead log of one durable pipeline. All methods are
/// called under the pipeline's writer lock — the log needs no locking of
/// its own, and its order matches staged-state mutation order by
/// construction.
pub(crate) struct Wal {
    dir: PathBuf,
    path: PathBuf,
    file: File,
    policy: SyncPolicy,
    last_sync: Instant,
    /// Unsynced appended bytes exist.
    dirty: bool,
    fault: Option<WalFault>,
    /// End of the last acknowledged frame: a failed append cuts the log
    /// back to here.
    end: u64,
    /// A failed append could not be cut back; every later append is
    /// refused until the log is reopened (which drops the tail).
    poisoned: bool,
    /// Test hook: the next append writes at most this many bytes of its
    /// frame and then fails, as a device error mid-write or at fsync
    /// would.
    fail_after: Option<usize>,
}

impl Wal {
    /// Opens (creating if absent) `dir/wal.log`, replays every intact
    /// frame, and truncates any torn tail so new appends extend a clean
    /// log. Returns the log handle and the replayed records in order.
    pub(crate) fn open(dir: &Path, policy: SyncPolicy) -> io::Result<(Wal, Vec<WalRecord>)> {
        let path = dir.join(WAL_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, mut good_len) = parse_log(&bytes);

        // truncate(false): the log must survive the open; torn tails are
        // cut explicitly via set_len below.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        if bytes.is_empty() || good_len < HEADER_LEN as u64 {
            // Fresh file, or a header too damaged to extend: start over.
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            good_len = HEADER_LEN as u64;
        } else if good_len < bytes.len() as u64 {
            // Torn or corrupt tail: everything past the last intact frame
            // was never acknowledged as durable — drop it so the next
            // append does not graft onto garbage.
            file.set_len(good_len)?;
        }
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                path,
                file,
                policy,
                last_sync: Instant::now(),
                dirty: false,
                fault: None,
                end: good_len,
                poisoned: false,
                fail_after: None,
            },
            records,
        ))
    }

    /// Appends one record, fsyncing per the sync policy. Returns whether
    /// this append flushed the device. On error nothing is acknowledged:
    /// the caller must reject the mutation without applying it, and the
    /// log is cut back to the end of the last acknowledged frame. Torn
    /// bytes left behind would end replay before the next acknowledged
    /// frame; an intact frame whose fsync failed would replay a rejected
    /// mutation. If the cut itself fails, every later append is refused.
    pub(crate) fn append(&mut self, rec: &WalRecord) -> io::Result<bool> {
        if self.poisoned {
            return Err(io::Error::other(
                "a failed append could not be cut from the log; reopen to recover",
            ));
        }
        if let Some(mut fault) = self.fault {
            if fault.after > 0 {
                fault.after -= 1;
                self.fault = Some(fault);
            } else {
                fault.times = fault.times.saturating_sub(1);
                self.fault = (fault.times > 0).then_some(fault);
                let raw = if fault.no_space { 28 } else { 5 };
                return Err(io::Error::from_raw_os_error(raw));
            }
        }
        let body = rec.encode_body()?;
        let mut frame = Vec::with_capacity(FRAME_PREFIX + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        match self.write_frame(&frame) {
            Ok(synced) => {
                self.end += frame.len() as u64;
                Ok(synced)
            }
            Err(e) => {
                // The cut is itself a change the next sync must flush.
                self.dirty = true;
                let cut = self.file.set_len(self.end);
                if cut.and_then(|()| self.file.seek(SeekFrom::Start(self.end))).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Writes one frame at the log's end and fsyncs per the sync policy.
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<bool> {
        let fail_after = self.fail_after.take();
        let keep = fail_after.map_or(frame.len(), |n| n.min(frame.len()));
        self.file.write_all(&frame[..keep])?;
        self.dirty = true;
        if fail_after.is_some() {
            return Err(io::Error::from_raw_os_error(5));
        }
        let sync_now = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::GroupCommit(interval) => self.last_sync.elapsed() >= interval,
        };
        if sync_now {
            self.sync()?;
        }
        Ok(sync_now)
    }

    /// Flushes appended records to the device (group-commit batching ends
    /// here).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Rewrites the log to hold exactly `staged` (one add record per
    /// still-staged document) via write-tmp + fsync + rename + dir fsync.
    /// Called only after the state the old log protected is durable in
    /// the manifest layout; a crash mid-rewrite leaves the old (larger
    /// but still correct) log in place.
    pub(crate) fn checkpoint(
        &mut self,
        staged: &BTreeMap<String, DocSource>,
    ) -> io::Result<()> {
        let tmp = self.dir.join(WAL_TMP);
        let mut body = Vec::new();
        body.extend_from_slice(WAL_MAGIC);
        body.extend_from_slice(&WAL_VERSION.to_le_bytes());
        for (uri, src) in staged {
            let rec = match src {
                DocSource::Xml(text) => {
                    WalRecord::AddXml { uri: uri.clone(), text: text.clone() }
                }
                DocSource::Html(text) => {
                    WalRecord::AddHtml { uri: uri.clone(), text: text.clone() }
                }
            };
            let rb = rec.encode_body()?;
            body.extend_from_slice(&(rb.len() as u32).to_le_bytes());
            body.extend_from_slice(&crc32(&rb).to_le_bytes());
            body.extend_from_slice(&rb);
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        crate::persist::fsync_dir(&self.dir)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.end = file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Arms (or disarms with `None`) the deterministic append fault.
    pub(crate) fn set_fault(&mut self, fault: Option<WalFault>) {
        self.fault = fault;
    }

    /// Current log size in bytes (tests and gauges).
    pub(crate) fn len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }
}

/// Walks `bytes` as a WAL, returning every intact record plus the byte
/// length of the clean prefix (header + intact frames). Stops — without
/// panicking — at a short header, a truncated frame, a CRC mismatch, or
/// an undecodable body: everything from the first damage on is a torn
/// tail and is dropped.
pub(crate) fn parse_log(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    if bytes.len() < HEADER_LEN
        || &bytes[..4] != WAL_MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) != WAL_VERSION
    {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while bytes.len() - at >= FRAME_PREFIX {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let body_at = at + FRAME_PREFIX;
        if len == 0 || bytes.len() - body_at < len {
            break; // truncated frame (torn tail)
        }
        let body = &bytes[body_at..body_at + len];
        if crc32(body) != crc {
            break; // damaged frame: the log ends here
        }
        let Some(rec) = WalRecord::decode_body(body) else {
            break;
        };
        records.push(rec);
        at = body_at + len;
    }
    (records, at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xrank-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn add(uri: &str, text: &str) -> WalRecord {
        WalRecord::AddXml { uri: uri.into(), text: text.into() }
    }

    #[test]
    fn round_trips_records_in_order() {
        let dir = tmp_dir("roundtrip");
        let recs = vec![
            add("a", "<d>one</d>"),
            WalRecord::AddHtml { uri: "p".into(), text: "<html>x</html>".into() },
            WalRecord::Delete { uri: "a".into() },
        ];
        {
            let (mut wal, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
            assert!(replayed.is_empty());
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, recs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_log_stays_appendable() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
            wal.append(&add("a", "<d>a</d>")).unwrap();
            wal.append(&add("b", "<d>b</d>")).unwrap();
        }
        // Tear the last frame mid-byte.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut wal, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>")], "only the intact prefix survives");
        wal.append(&add("c", "<d>c</d>")).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>"), add("c", "<d>c</d>")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bit_ends_replay_at_the_damage() {
        let dir = tmp_dir("bitflip");
        {
            let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..4 {
                wal.append(&add(&format!("d{i}"), "<d>text</d>")).unwrap();
            }
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second frame's body.
        let mut at = HEADER_LEN;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += FRAME_PREFIX + len; // start of frame 2
        bytes[at + FRAME_PREFIX + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed.len(), 1, "replay stops at the damaged frame");
        assert_eq!(replayed[0], add("d0", "<d>text</d>"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rewrites_to_staged_set_only() {
        let dir = tmp_dir("checkpoint");
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        for i in 0..8 {
            wal.append(&add(&format!("d{i}"), "<d>text</d>")).unwrap();
        }
        let before = wal.len();
        let mut staged = BTreeMap::new();
        staged.insert("keep".to_string(), DocSource::Xml("<d>kept</d>".into()));
        wal.checkpoint(&staged).unwrap();
        assert!(wal.len() < before, "checkpoint shrank the log");
        // And the new log extends cleanly.
        wal.append(&WalRecord::Delete { uri: "keep".into() }).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(
            replayed,
            vec![add("keep", "<d>kept</d>"), WalRecord::Delete { uri: "keep".into() }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fault_fails_append_then_clears() {
        let dir = tmp_dir("fault");
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        wal.set_fault(Some(WalFault { after: 1, times: 2, no_space: true }));
        wal.append(&add("ok", "<d>x</d>")).unwrap();
        for _ in 0..2 {
            let err = wal.append(&add("no", "<d>x</d>")).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        }
        wal.append(&add("again", "<d>x</d>")).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("ok", "<d>x</d>"), add("again", "<d>x</d>")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed append leaves nothing behind: neither the torn bytes of a
    /// write that died mid-frame (they would end replay before the next
    /// acknowledged frame) nor the intact frame of a write whose fsync
    /// failed (it would replay a mutation the caller saw rejected).
    #[test]
    fn failed_append_is_cut_from_the_log() {
        let dir = tmp_dir("cut");
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        wal.append(&add("a", "<d>a</d>")).unwrap();
        let failures = [(5, "torn"), (FRAME_PREFIX + 3, "torn-body"), (usize::MAX, "whole")];
        for (keep, uri) in failures {
            wal.fail_after = Some(keep);
            assert!(wal.append(&add(uri, "<d>x</d>")).is_err(), "{uri}");
        }
        wal.append(&add("b", "<d>b</d>")).unwrap();
        // The last append of a session fails after a whole frame: no later
        // append overwrites it, so only the cut keeps it out of replay.
        wal.fail_after = Some(usize::MAX);
        assert!(wal.append(&add("unsynced", "<d>x</d>")).is_err());
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>"), add("b", "<d>b</d>")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// When the cut itself fails, the log refuses every later append until
    /// it is reopened; the reopened log holds the acknowledged frames only.
    #[test]
    fn failed_cut_refuses_appends_until_reopen() {
        let dir = tmp_dir("poisoned");
        let (mut wal, _) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        wal.append(&add("a", "<d>a</d>")).unwrap();
        // A read-only handle fails both the write and the cut.
        let writable = std::mem::replace(&mut wal.file, File::open(dir.join(WAL_FILE)).unwrap());
        assert!(wal.append(&add("lost", "<d>x</d>")).is_err());
        wal.file = writable;
        assert!(wal.append(&add("refused", "<d>x</d>")).is_err(), "log is poisoned");
        drop(wal);
        let (mut wal, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>")]);
        wal.append(&add("b", "<d>b</d>")).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>"), add("b", "<d>b</d>")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_or_empty_file_is_reinitialized_not_trusted() {
        let dir = tmp_dir("foreign");
        std::fs::write(dir.join(WAL_FILE), b"not a wal at all").unwrap();
        let (mut wal, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert!(replayed.is_empty());
        wal.append(&add("a", "<d>a</d>")).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, vec![add("a", "<d>a</d>")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The durable incident/event journal: what survives a host crash.
//!
//! PR 4 made *device* failure a first-class scenario — faults delay
//! verdicts, never lose or change them. This module extends that
//! contract up through the host service layer: every ingested
//! [`ProcessEvent`] and every latched [`Incident`] is appended to a
//! single append-only journal file, so a crashed or killed sentry can
//! be rebuilt to the exact state an uninterrupted run would have
//! reached (see [`durable`](crate::durable) for the replay half).
//!
//! # Record format
//!
//! The file opens with an 8-byte magic (`CSDJRNL1`) and then holds
//! back-to-back records, each framed with the same discipline as the
//! socket protocol in [`event`](crate::event):
//!
//! ```text
//! ┌────────────┬─────────────┬───────┬──────────────────────┐
//! │ len u32 LE │ crc32 u32 LE│ rtype │ body (len-1 bytes)   │
//! └────────────┴─────────────┴───────┴──────────────────────┘
//!   rtype 0 = Event    (body: the wire payload of the event)
//!   rtype 1 = Incident (body: the incident's JSON record)
//! ```
//!
//! `len` counts `rtype + body`; the CRC-32 (IEEE) covers the same
//! bytes. A record is *valid* iff its length fits the remaining file,
//! is within [`MAX_RECORD_LEN`], its CRC matches, and its body decodes.
//!
//! # Durability model
//!
//! Appends buffer in user space and reach the file — one `write` plus
//! one `fdatasync` — at *sync points*: every
//! [`sync_every`](JournalConfig::sync_every) event records, at every
//! incident (alerts are exactly the records the service exists to
//! produce, so they are never batched), and on clean shutdown (drop).
//! A crash therefore loses at most `sync_every − 1` trailing event
//! records plus, if the crash interrupts a flush, a torn partial
//! record at the tail.
//!
//! # Torn-tail recovery
//!
//! [`Journal::open`] scans the existing file record by record and
//! truncates at the first invalid one — a torn length prefix, a length
//! past the file end, a CRC mismatch, or an undecodable body all end
//! the valid prefix. Everything before it is returned for replay;
//! everything after is counted in
//! [`JournalRecovery::bytes_truncated`] and physically removed, so the
//! next append extends a clean tail. This is the longest-valid-prefix
//! contract the torn-tail proptest pins: arbitrary truncation or byte
//! corruption of the tail never loses a record that was fully synced
//! before it.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::actions::Incident;
use crate::event::{decode_payload, encode_payload, ProcessEvent};

/// Magic bytes opening every journal file (format version 1).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSDJRNL1";

/// Upper bound on one record's `rtype + body` length. The largest
/// legitimate record is an incident's JSON, far under this; a torn or
/// hostile length prefix beyond it ends the valid prefix.
pub const MAX_RECORD_LEN: usize = 64 * 1024;

/// Why a journal operation failed. Torn tails are *not* errors — open
/// recovers them — so everything here is an environmental failure.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file exists but does not start with [`JOURNAL_MAGIC`] — it
    /// is not a journal, and truncating it would destroy someone
    /// else's data.
    BadMagic,
    /// An incident could not be serialized for the record body.
    Encode(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::BadMagic => write!(f, "file is not a csd-sentry journal"),
            JournalError::Encode(e) => write!(f, "journal record failed to encode: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An ingested process event.
    Event(ProcessEvent),
    /// A latched incident, with its action outcome.
    Incident(Incident),
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded past the longest valid prefix (0 for a clean
    /// shutdown).
    pub bytes_truncated: u64,
}

impl JournalRecovery {
    /// The recovered events, in append order.
    pub fn events(&self) -> impl Iterator<Item = &ProcessEvent> {
        self.records.iter().filter_map(|r| match r {
            JournalRecord::Event(e) => Some(e),
            JournalRecord::Incident(_) => None,
        })
    }

    /// The recovered incidents, in append order.
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.records.iter().filter_map(|r| match r {
            JournalRecord::Incident(i) => Some(i),
            JournalRecord::Event(_) => None,
        })
    }

    /// Recovered event-record count.
    pub fn event_count(&self) -> u64 {
        self.events().count() as u64
    }
}

/// Journal tuning.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Event records buffered between fsync batches. `1` syncs every
    /// append (slow, loses nothing); larger values trade a bounded
    /// tail of re-sendable events for throughput. Incidents always
    /// force a sync regardless.
    pub sync_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self { sync_every: 256 }
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the same polynomial the device sim's
/// CRC-on-DMA check models, reused here as the record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The append-only durable journal.
///
/// See the [module docs](self) for the format and durability model.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    sync_every: usize,
    /// Encoded records not yet written to the OS.
    pending: Vec<u8>,
    /// Event records in `pending`.
    pending_events: usize,
    /// Event records durably on disk (written *and* synced).
    durable_events: u64,
    /// Incident records durably on disk.
    durable_incidents: u64,
    /// fsync batches issued (for reports).
    syncs: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, recovering the
    /// longest valid record prefix and truncating any torn tail. The
    /// recovered records come back alongside the journal, positioned
    /// to append.
    pub fn open(
        path: &Path,
        config: JournalConfig,
    ) -> Result<(Self, JournalRecovery), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut recovery = JournalRecovery::default();
        let valid_end = if bytes.is_empty() {
            file.write_all(JOURNAL_MAGIC)?;
            file.sync_data()?;
            JOURNAL_MAGIC.len() as u64
        } else if bytes.len() < JOURNAL_MAGIC.len() {
            // A torn first write: nothing valid was ever synced.
            recovery.bytes_truncated = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(JOURNAL_MAGIC)?;
            file.sync_data()?;
            JOURNAL_MAGIC.len() as u64
        } else if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        } else {
            let valid = scan_records(&bytes[JOURNAL_MAGIC.len()..], &mut recovery.records);
            let end = (JOURNAL_MAGIC.len() + valid) as u64;
            recovery.bytes_truncated = bytes.len() as u64 - end;
            if recovery.bytes_truncated > 0 {
                file.set_len(end)?;
                file.sync_data()?;
            }
            end
        };
        file.seek(SeekFrom::Start(valid_end))?;
        let durable_events = recovery.event_count();
        let durable_incidents = recovery.incidents().count() as u64;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                sync_every: config.sync_every.max(1),
                pending: Vec::with_capacity(4096),
                pending_events: 0,
                durable_events,
                durable_incidents,
                syncs: 0,
            },
            recovery,
        ))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Event records durably on disk. The at-least-once resume
    /// contract: a producer that replays from this offset re-sends
    /// exactly the events a crash could have lost.
    pub fn durable_events(&self) -> u64 {
        self.durable_events
    }

    /// Incident records durably on disk.
    pub fn durable_incidents(&self) -> u64 {
        self.durable_incidents
    }

    /// Event records appended but not yet synced.
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// fsync batches issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Frames one record in place at the end of `pending`: a zeroed
    /// header, the record type, the body `encode` appends, then `len`
    /// and the CRC back-patched over the written slice — no per-record
    /// buffer.
    fn frame_into(pending: &mut Vec<u8>, rtype: u8, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = pending.len();
        pending.extend_from_slice(&[0; 8]);
        pending.push(rtype);
        encode(pending);
        let payload = &pending[start + 8..];
        let len = payload.len();
        debug_assert!(len <= MAX_RECORD_LEN, "record exceeds MAX_RECORD_LEN");
        let crc = crc32(payload);
        pending[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        pending[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Appends one event record. Buffered; becomes durable at the next
    /// sync point (every `sync_every` events, any incident, `sync`, or
    /// clean drop).
    pub fn append_event(&mut self, event: &ProcessEvent) -> Result<(), JournalError> {
        Self::frame_into(&mut self.pending, 0, |out| encode_payload(event, out));
        self.pending_events += 1;
        if self.pending_events >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one incident record and forces a sync: an incident is
    /// never left in the volatile tail.
    pub fn append_incident(&mut self, incident: &Incident) -> Result<(), JournalError> {
        let json =
            serde_json::to_string(incident).map_err(|e| JournalError::Encode(e.to_string()))?;
        Self::frame_into(&mut self.pending, 1, |out| {
            out.extend_from_slice(json.as_bytes());
        });
        self.durable_incidents += 1;
        self.sync()
    }

    /// Writes every buffered record and fdatasyncs. After `Ok`, all
    /// previously appended records survive any crash.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        self.durable_events += self.pending_events as u64;
        self.pending_events = 0;
        self.pending.clear();
        self.syncs += 1;
        Ok(())
    }

    /// Simulates a crash: the buffered tail is lost, except for the
    /// first `torn_bytes` bytes which reach the file *without* record
    /// framing integrity — a flush interrupted mid-write. The next
    /// [`open`](Self::open) must recover the longest valid prefix.
    /// Consumes the journal; nothing else is flushed.
    pub fn simulate_crash(mut self, torn_bytes: usize) {
        let torn = torn_bytes.min(self.pending.len());
        if torn > 0 {
            let prefix = &self.pending[..torn];
            // Best effort, like the real interrupted flush it models.
            let _ = self.file.write_all(prefix);
            let _ = self.file.sync_data();
        }
        self.pending.clear();
        self.pending_events = 0;
        // Drop now flushes an empty buffer: a no-op.
    }
}

impl Drop for Journal {
    /// Clean shutdown flushes the buffered tail. Errors are swallowed
    /// (there is no one to report to in drop); callers that need the
    /// result call [`sync`](Self::sync) first.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// Scans `bytes` (past the magic) record by record, pushing decoded
/// records and returning the byte length of the longest valid prefix.
fn scan_records(bytes: &[u8], out: &mut Vec<JournalRecord>) -> usize {
    let mut at = 0usize;
    loop {
        let Some(header) = bytes.get(at..at + 8) else {
            return at; // Torn length/CRC prefix (or clean end).
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_LEN {
            return at;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            return at; // Record cut mid-body.
        };
        if crc32(payload) != crc {
            return at; // Flipped bits anywhere in the payload.
        }
        let record = match payload[0] {
            0 => match decode_payload(&payload[1..]) {
                Ok(Some(event)) => JournalRecord::Event(event),
                _ => return at,
            },
            1 => match std::str::from_utf8(&payload[1..])
                .ok()
                .and_then(|json| serde_json::from_str::<Incident>(json).ok())
            {
                Some(incident) => JournalRecord::Incident(incident),
                None => return at,
            },
            _ => return at, // Unknown record type: not ours.
        };
        out.push(record);
        at += 8 + len;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::actions::{ActionOutcome, ActionTaken};
    use csd_accel::Alert;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csd-journal-{}-{tag}.log", std::process::id()))
    }

    fn sample_events(n: usize) -> Vec<ProcessEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => ProcessEvent::spawn(i as u64, 100 + i as u32, "proc.exe"),
                1 => ProcessEvent::api(i as u64, 100 + i as u32, i % 16),
                _ => ProcessEvent::exit(i as u64, 100 + i as u32),
            })
            .collect()
    }

    fn sample_incident(sid: u64) -> Incident {
        Incident {
            sid,
            pid: 4242,
            name: Some("evil.exe".to_string()),
            alert: Alert {
                at_call: 100,
                probability: 0.97,
                inference_us: 12.5,
            },
            action: ActionTaken::Quarantined,
            outcome: ActionOutcome::Applied("sandboxed".to_string()),
            post_exit: false,
        }
    }

    #[test]
    fn events_and_incidents_roundtrip_through_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let events = sample_events(10);
        {
            let (mut j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
            assert!(rec.records.is_empty());
            for (i, e) in events.iter().enumerate() {
                j.append_event(e).unwrap();
                if i == 4 {
                    j.append_incident(&sample_incident(3)).unwrap();
                }
            }
            // Clean drop syncs the tail.
        }
        let (j, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.bytes_truncated, 0);
        assert_eq!(rec.event_count(), 10);
        assert_eq!(j.durable_events(), 10);
        let got: Vec<ProcessEvent> = rec.events().cloned().collect();
        assert_eq!(got, events);
        let incidents: Vec<&Incident> = rec.incidents().collect();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0], &sample_incident(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_loses_only_the_unsynced_tail() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let events = sample_events(20);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 8 }).unwrap();
            for e in &events {
                j.append_event(e).unwrap();
            }
            // 16 synced (two batches of 8), 4 pending.
            assert_eq!(j.durable_events(), 16);
            assert_eq!(j.pending_events(), 4);
            j.simulate_crash(0);
        }
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 16, "synced records survive the crash");
        assert_eq!(rec.bytes_truncated, 0, "no torn bytes were written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_flush_truncates_to_the_longest_valid_prefix() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 4 }).unwrap();
            for e in sample_events(7) {
                j.append_event(&e).unwrap();
            }
            // 4 synced; 3 pending. Crash mid-flush: 11 bytes of the
            // pending batch (a torn partial record) reach the disk.
            j.simulate_crash(11);
        }
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 4, "only fully synced records recover");
        assert!(rec.bytes_truncated > 0, "the torn tail was dropped");
        // The truncation is physical: reopening again is clean.
        let (_, rec2) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec2.bytes_truncated, 0);
        assert_eq!(rec2.event_count(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_ends_the_valid_prefix_at_the_flip() {
        let path = tmp("flip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig { sync_every: 1 }).unwrap();
            for e in sample_events(6) {
                j.append_event(&e).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the last record's body.
        let n = bytes.len();
        bytes[n - 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.event_count(), 5, "records before the flip survive");
        assert!(rec.bytes_truncated > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_refused_not_truncated() {
        let path = tmp("notjournal");
        std::fs::write(&path, b"precious user data, definitely not a journal").unwrap();
        let err = Journal::open(&path, JournalConfig::default());
        assert!(matches!(err, Err(JournalError::BadMagic)));
        let back = std::fs::read(&path).unwrap();
        assert_eq!(
            back, b"precious user data, definitely not a journal",
            "refusing must not modify the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_record_bytes_follow_the_documented_layout() {
        let path = tmp("layout");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, JournalConfig::default()).unwrap();
            j.append_event(&ProcessEvent::api(0x0102_0304_0506_0708, 0xA1B2_C3D4, 9))
                .unwrap();
        }
        // rtype 0, then the wire payload: tag 1 (API call), t_us u64 LE,
        // pid u32 LE, call u32 LE.
        let mut payload = vec![0u8, 1];
        payload.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        payload.extend_from_slice(&[0xD4, 0xC3, 0xB2, 0xA1]);
        payload.extend_from_slice(&[9, 0, 0, 0]);
        let mut want = JOURNAL_MAGIC.to_vec();
        want.extend_from_slice(&[18, 0, 0, 0]);
        want.extend_from_slice(&crc32(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "[len][crc][rtype][body]"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}

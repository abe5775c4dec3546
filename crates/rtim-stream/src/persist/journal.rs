//! The `RTAJ` arrival-order journal: an append-only, crash-tolerant log of
//! ingest batches.
//!
//! The engine pipeline rebases every accepted batch onto the global arrival
//! order; appending those rebased batches here makes the stream durable —
//! a restarted server replays the journal (or, with a snapshot, only its
//! tail past the snapshot watermark) and answers exactly as if it never
//! stopped.
//!
//! ## Layout
//!
//! ```text
//! "RTAJ" magic │ version u8 │ batch*
//! batch = count u32 LE │ count × 20-byte action records (id, user, parent)
//! ```
//!
//! Batches (not bare actions) are the journal unit on purpose: slide
//! boundaries are cut **per ingest call**, so replaying the exact batch
//! sequence reproduces the engine's slide pattern — and therefore its
//! answers — bit for bit, even when clients sent ragged batches.
//!
//! ## Crash tolerance
//!
//! A process killed mid-append leaves a partial batch at the tail.
//! [`read_journal`] stops at the first incomplete or invalid batch and
//! reports the ignored byte count; [`JournalWriter::resume`] truncates that
//! torn tail before appending, so the file never accumulates garbage in the
//! middle.  Every complete batch is validated (ids strictly increasing
//! across the whole journal, parents strictly earlier) — the journal is
//! machine-written, so a violation means corruption and the valid prefix is
//! used.
//!
//! A deployment journal is **segmented** across several such files so
//! snapshots can bound its growth; see [`super::segjournal`].  All file I/O
//! goes through the fault-injectable [`Fs`] layer; the plain-path entry
//! points below are the zero-cost pass-through.

use super::faultfs::{DurableFile, Fs};
use super::state::StateError;
use super::MAX_FRAME_BYTES;
use crate::action::{Action, ActionId, UserId};
use std::io;
use std::path::Path;

/// Magic bytes of the journal format ("RTAJ" = RTim Action Journal).
pub const JOURNAL_MAGIC: &[u8; 4] = b"RTAJ";

/// Version byte of the journal format.
pub const JOURNAL_VERSION: u8 = 1;

/// Bytes of the journal header.
pub(crate) const HEADER_BYTES: u64 = 5;

/// Bytes per action record (shared with `RTAS`/`RTAB`).
const RECORD_BYTES: usize = 20;

/// The parsed contents of a journal file.
#[derive(Debug, Default)]
pub struct JournalContents {
    /// Complete, valid batches in append order.
    pub batches: Vec<Vec<Action>>,
    /// End offset of each batch (parallel to `batches`): the file length
    /// that keeps exactly batches `..= i`.  Recovery uses these to cut a
    /// journal at *any* batch boundary, not only at the torn tail.
    pub batch_ends: Vec<u64>,
    /// Bytes of the valid prefix (header + complete batches); the offset a
    /// resumed writer truncates to.
    pub valid_len: u64,
    /// Bytes ignored past the valid prefix (torn tail from a crash, or
    /// trailing corruption).  0 for a cleanly written journal.
    pub ignored_bytes: u64,
}

impl JournalContents {
    /// Total actions across all valid batches.
    pub fn actions(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }

    /// Id of the first journaled action (0 if the journal is empty).
    pub fn first_id(&self) -> u64 {
        self.batches
            .first()
            .and_then(|b| b.first())
            .map_or(0, |a| a.id.0)
    }

    /// Id of the last journaled action (0 if the journal is empty).
    pub fn last_id(&self) -> u64 {
        self.batches
            .last()
            .and_then(|b| b.last())
            .map_or(0, |a| a.id.0)
    }
}

/// Reads and validates a journal file (pass-through I/O).
///
/// * A missing file is an **empty journal**, not an error (the common cold
///   start).
/// * A torn tail (partial batch from a crash) or trailing corruption is
///   tolerated: parsing stops there and `ignored_bytes` reports how much
///   was dropped.
/// * A bad header is [`StateError::BadHeader`] — the file is not a journal
///   at all, which the caller must treat as unrecoverable rather than as an
///   empty stream.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalContents, StateError> {
    read_journal_with(path.as_ref(), &Fs::real())
}

/// [`read_journal`] through an explicit (possibly fault-injected) [`Fs`].
pub fn read_journal_with(path: &Path, fs: &Fs) -> Result<JournalContents, StateError> {
    let data = match fs.read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalContents::default()),
        Err(e) => return Err(e.into()),
    };
    if data.len() < HEADER_BYTES as usize {
        // Even the header never finished: treat as empty, resume rewrites it.
        return Ok(JournalContents {
            ignored_bytes: data.len() as u64,
            ..JournalContents::default()
        });
    }
    if &data[..4] != JOURNAL_MAGIC || data[4] != JOURNAL_VERSION {
        return Err(StateError::BadHeader);
    }
    let mut contents = JournalContents {
        valid_len: HEADER_BYTES,
        ..JournalContents::default()
    };
    let mut pos = HEADER_BYTES as usize;
    let mut last_id = 0u64;
    'batches: while pos + 4 <= data.len() {
        let count = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let body = count.checked_mul(RECORD_BYTES);
        let end = body.and_then(|b| pos.checked_add(4 + b));
        match end {
            Some(end) if end <= data.len() && count > 0 => {
                let mut batch = Vec::with_capacity(count.min(MAX_FRAME_BYTES / RECORD_BYTES));
                let mut cursor = pos + 4;
                for _ in 0..count {
                    let rec = &data[cursor..cursor + RECORD_BYTES];
                    cursor += RECORD_BYTES;
                    let id = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
                    let user = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
                    let parent = u64::from_le_bytes(rec[12..20].try_into().expect("8 bytes"));
                    // The journal holds the rebased global order: strictly
                    // increasing ids, parents strictly earlier.  A violation
                    // means corruption — keep the prefix, drop the rest.
                    if id <= last_id || (parent != 0 && parent >= id) {
                        break 'batches;
                    }
                    last_id = id;
                    batch.push(Action {
                        id: ActionId(id),
                        user: UserId(user),
                        parent: if parent == 0 {
                            None
                        } else {
                            Some(ActionId(parent))
                        },
                    });
                }
                contents.batches.push(batch);
                contents.batch_ends.push(end as u64);
                contents.valid_len = end as u64;
                pos = end;
            }
            // Incomplete batch (torn tail) or a zero/hostile count.
            _ => break,
        }
    }
    contents.ignored_bytes = data.len() as u64 - contents.valid_len;
    Ok(contents)
}

/// Encodes one batch into its on-disk bytes (count prefix + records).
pub(crate) fn encode_journal_batch(actions: &[Action]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + actions.len() * RECORD_BYTES);
    buf.extend_from_slice(&(actions.len() as u32).to_le_bytes());
    for a in actions {
        buf.extend_from_slice(&a.id.0.to_le_bytes());
        buf.extend_from_slice(&a.user.0.to_le_bytes());
        buf.extend_from_slice(&a.parent.map_or(0, |p| p.0).to_le_bytes());
    }
    buf
}

/// An append-only journal writer.
///
/// Each batch is encoded into a buffer and appended with a **single**
/// write, so a torn append can only tear *inside* one batch (the shape
/// [`read_journal`] tolerates), and the fault layer sees one injectable
/// write per batch.  Appends reach the OS per batch; call
/// [`JournalWriter::sync`] for durability against machine crashes.
#[derive(Debug)]
pub struct JournalWriter {
    file: DurableFile,
    /// Bytes of durable + buffered-to-OS journal so far.
    len: u64,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes the header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JournalWriter> {
        Self::create_with(path.as_ref(), &Fs::real())
    }

    /// [`JournalWriter::create`] through an explicit [`Fs`].
    pub fn create_with(path: &Path, fs: &Fs) -> io::Result<JournalWriter> {
        let mut file = fs.create(path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.push(JOURNAL_VERSION);
        file.write_all(&header)?;
        Ok(JournalWriter {
            file,
            len: HEADER_BYTES,
        })
    }

    /// Opens `path` for appending after recovery: the file is truncated to
    /// `valid_len` (dropping any torn tail reported by [`read_journal`])
    /// and positioned at its end.  A missing or headerless file is created
    /// fresh.
    pub fn resume(path: impl AsRef<Path>, valid_len: u64) -> io::Result<JournalWriter> {
        Self::resume_with(path.as_ref(), valid_len, &Fs::real())
    }

    /// [`JournalWriter::resume`] through an explicit [`Fs`].
    pub fn resume_with(path: &Path, valid_len: u64, fs: &Fs) -> io::Result<JournalWriter> {
        if valid_len < HEADER_BYTES {
            return Self::create_with(path, fs);
        }
        let mut file = fs.open_rw(path)?;
        file.set_len(valid_len)?;
        file.seek_end()?;
        Ok(JournalWriter {
            file,
            len: valid_len,
        })
    }

    /// Appends one batch in a single write.  Empty batches are skipped (a
    /// zero count would read as a torn tail).
    pub fn append_batch(&mut self, actions: &[Action]) -> io::Result<()> {
        if actions.is_empty() {
            return Ok(());
        }
        let buf = encode_journal_batch(actions);
        self.file.write_all(&buf)?;
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Forces the journal to stable storage (`fsync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Bytes written so far (header + appended batches).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no batch has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len <= HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::super::faultfs::{FaultInjector, FaultKind, FaultRule, OpKind};
    use super::*;
    use std::fs::OpenOptions;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rtim-journal-{}-{name}.rtaj", std::process::id()));
        p
    }

    #[test]
    fn journal_round_trips_batches() {
        let path = temp_path("round-trip");
        let mut w = JournalWriter::create(&path).unwrap();
        let b1 = vec![Action::root(1u64, 1u32), Action::reply(2u64, 2u32, 1u64)];
        let b2 = vec![Action::reply(3u64, 3u32, 1u64)];
        w.append_batch(&b1).unwrap();
        w.append_batch(&[]).unwrap(); // skipped
        w.append_batch(&b2).unwrap();
        w.sync().unwrap();
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.batches, vec![b1, b2]);
        assert_eq!(contents.actions(), 3);
        assert_eq!(contents.first_id(), 1);
        assert_eq!(contents.last_id(), 3);
        assert_eq!(contents.ignored_bytes, 0);
        assert_eq!(contents.batch_ends.len(), 2);
        assert_eq!(*contents.batch_ends.last().unwrap(), contents.valid_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_empty() {
        let contents = read_journal(temp_path("never-created")).unwrap();
        assert!(contents.batches.is_empty());
        assert_eq!(contents.last_id(), 0);
    }

    #[test]
    fn torn_tail_is_ignored_and_resume_truncates_it() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        let good = vec![Action::root(1u64, 1u32), Action::root(2u64, 2u32)];
        w.append_batch(&good).unwrap();
        drop(w);
        // Simulate a crash mid-append: a batch header + half a record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&3u32.to_le_bytes()).unwrap();
            f.write_all(&[0xAB; 11]).unwrap();
        }
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.batches, vec![good.clone()]);
        assert_eq!(contents.ignored_bytes, 15);
        // Resuming truncates the tail; the next append parses cleanly.
        let mut w = JournalWriter::resume(&path, contents.valid_len).unwrap();
        let next = vec![Action::reply(3u64, 3u32, 1u64)];
        w.append_batch(&next).unwrap();
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.batches, vec![good, next]);
        assert_eq!(contents.ignored_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_records_keep_the_valid_prefix() {
        let path = temp_path("corrupt");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append_batch(&[Action::root(5u64, 1u32)]).unwrap();
        drop(w);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A complete batch whose id goes backwards (corruption).
            f.write_all(&1u32.to_le_bytes()).unwrap();
            f.write_all(&2u64.to_le_bytes()).unwrap();
            f.write_all(&9u32.to_le_bytes()).unwrap();
            f.write_all(&0u64.to_le_bytes()).unwrap();
        }
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.actions(), 1);
        assert!(contents.ignored_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_a_bad_header() {
        let path = temp_path("not-a-journal");
        std::fs::write(&path, b"definitely not RTAJ").unwrap();
        assert!(matches!(read_journal(&path), Err(StateError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headerless_stub_is_treated_as_empty_and_recreated() {
        let path = temp_path("stub");
        std::fs::write(&path, b"RT").unwrap(); // crash before the header finished
        let contents = read_journal(&path).unwrap();
        assert!(contents.batches.is_empty());
        assert_eq!(contents.valid_len, 0);
        let mut w = JournalWriter::resume(&path, contents.valid_len).unwrap();
        w.append_batch(&[Action::root(1u64, 1u32)]).unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap().actions(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// An injected short write tears exactly one batch, which reads back as
    /// a torn tail — the per-batch single-write discipline at work.
    #[test]
    fn injected_short_write_tears_one_batch_only() {
        let path = temp_path("fault-short");
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
            op: Some(OpKind::Write),
            kind: FaultKind::ShortWrite,
            from: 3, // header, batch 1, then tear batch 2
            count: 1,
        }]));
        let mut w = JournalWriter::create_with(&path, &fs).unwrap();
        let b1 = vec![Action::root(1u64, 1u32)];
        w.append_batch(&b1).unwrap();
        assert!(w.append_batch(&[Action::root(2u64, 2u32)]).is_err());
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.batches, vec![b1]);
        assert!(contents.ignored_bytes > 0, "torn second batch is ignored");
        std::fs::remove_file(&path).ok();
    }

    /// ENOSPC on append surfaces as a typed error and leaves the journal
    /// readable (no partial bytes at all — the write failed atomically).
    #[test]
    fn injected_enospc_keeps_journal_clean() {
        let path = temp_path("fault-enospc");
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
            op: Some(OpKind::Write),
            kind: FaultKind::Enospc,
            from: 2,
            count: 1,
        }]));
        let mut w = JournalWriter::create_with(&path, &fs).unwrap();
        let err = w.append_batch(&[Action::root(1u64, 1u32)]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.actions(), 0);
        assert_eq!(contents.ignored_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}

//! Segmented `RTAJ` journals: rotation, compaction, and cross-segment
//! recovery.
//!
//! A single journal file grows without bound.  Deployments instead write a
//! **sequence of segments** in the persistence directory:
//!
//! ```text
//! journal.000001.rtaj   oldest
//! journal.000002.rtaj
//! journal.000003.rtaj   newest — the only segment being appended
//! ```
//!
//! (`journal.rtaj`, the pre-segmentation layout, is read as segment 0, so
//! old directories migrate transparently.)  Each segment is an ordinary
//! [`read_journal`] file; the global arrival order is the concatenation of
//! the segments' batches in sequence order.  Rotation is keyed to
//! snapshots — the engine rotates when it dispatches a snapshot, and once
//! the snapshot is durable every segment whose last action id is ≤ the
//! snapshot watermark is deleted (**compaction**).  A size-based rotation
//! bound exists as a backstop for deployments that snapshot rarely.
//!
//! ## Recovery rules
//!
//! * A **torn tail is legal only in the newest segment** (the only one a
//!   crash can tear).  A torn or corrupt *older* segment keeps its valid
//!   prefix, and every later segment is rejected — their actions are
//!   unreachable past the tear.
//! * Ids must keep increasing **across** segment boundaries.  Gaps are
//!   allowed (a degraded period that later re-armed starts a fresh segment
//!   past the gap; the re-arm snapshot covers the missing span), but an id
//!   regression or overlap rejects the offending segment and the rest.
//! * Rejected segments are renamed aside (`*.orphaned`) before any new
//!   append, so stale high-numbered files can never shadow fresh writes.

use super::faultfs::Fs;
use super::journal::{read_journal_with, JournalContents, JournalWriter, HEADER_BYTES};
use super::state::StateError;
use crate::action::Action;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the pre-segmentation single-file journal, read as segment 0.
pub const LEGACY_JOURNAL_FILE: &str = "journal.rtaj";

/// Suffix appended when a rejected segment is renamed aside at recovery.
pub const ORPHAN_SUFFIX: &str = "orphaned";

/// File name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    if seq == 0 {
        LEGACY_JOURNAL_FILE.to_string()
    } else {
        format!("journal.{seq:06}.rtaj")
    }
}

/// Parses a directory-entry file name back into a segment sequence number.
/// Non-segment names (snapshots, temp files, orphans) return `None`.
pub fn parse_segment_seq(name: &str) -> Option<u64> {
    if name == LEGACY_JOURNAL_FILE {
        return Some(0);
    }
    let digits = name.strip_prefix("journal.")?.strip_suffix(".rtaj")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One accepted segment of a journal directory.
#[derive(Debug)]
pub struct Segment {
    /// Sequence number (0 = legacy `journal.rtaj`).
    pub seq: u64,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// The segment's parsed batches.
    pub contents: JournalContents,
}

/// A segment recovery refused to use, with the reason.
#[derive(Debug)]
pub struct RejectedSegment {
    /// Sequence number parsed from the file name.
    pub seq: u64,
    /// Full path of the rejected file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: String,
}

/// The validated contents of a journal directory.
#[derive(Debug, Default)]
pub struct JournalDirContents {
    /// Accepted segments in ascending sequence order.
    pub segments: Vec<Segment>,
    /// Segments that must be orphaned before appending resumes.
    pub rejected: Vec<RejectedSegment>,
    /// Human-readable observations (torn tails, rejections).
    pub notes: Vec<String>,
}

impl JournalDirContents {
    /// Batches of all accepted segments, in global order.
    pub fn batches(&self) -> impl Iterator<Item = &Vec<Action>> {
        self.segments.iter().flat_map(|s| s.contents.batches.iter())
    }

    /// Total actions across accepted segments.
    pub fn actions(&self) -> u64 {
        self.segments.iter().map(|s| s.contents.actions()).sum()
    }

    /// Id of the last accepted action (0 if empty).
    pub fn last_id(&self) -> u64 {
        self.segments
            .iter()
            .rev()
            .map(|s| s.contents.last_id())
            .find(|&id| id != 0)
            .unwrap_or(0)
    }
}

/// Reads and cross-validates every journal segment in `dir`.
///
/// A missing directory is an empty journal.  Unreadable or corrupt
/// segments are *rejected* (not fatal): the valid prefix of the sequence
/// is returned and the rejects are listed for orphaning.  Only a directory
/// listing failure is an error.
pub fn read_journal_dir(dir: &Path, fs: &Fs) -> Result<JournalDirContents, StateError> {
    let mut out = JournalDirContents::default();
    let entries = match fs.read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    let mut files: Vec<(u64, PathBuf)> = entries
        .into_iter()
        .filter_map(|path| {
            let seq = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_segment_seq)?;
            Some((seq, path))
        })
        .collect();
    files.sort();
    let mut last_id = 0u64;
    for (idx, (seq, path)) in files.iter().enumerate() {
        let newest = idx + 1 == files.len();
        // Rejection is per segment, never suffix-severing: id gaps between
        // accepted segments are legal on disk (a degraded-mode re-arm
        // starts a fresh segment and covers the gap with a snapshot), and
        // replay enforces id continuity against the snapshot watermark —
        // so a torn or unreadable middle segment must not discard the
        // durable segments written after it.
        let rejection = match read_journal_with(path, fs) {
            Err(e) => Some(format!("unreadable: {e}")),
            Ok(contents) => {
                let first = contents.first_id();
                if first != 0 && first <= last_id {
                    // Overlap/regression across the boundary: machine-written
                    // segments never do this, so the file is stale or forged.
                    Some(format!(
                        "id overlap: starts at {first}, previous segment ended at {last_id}"
                    ))
                } else {
                    if contents.ignored_bytes > 0 {
                        out.notes.push(format!(
                            "segment {}: ignored {} bytes past the valid prefix{}",
                            path.display(),
                            contents.ignored_bytes,
                            if newest {
                                " (torn tail)"
                            } else {
                                " (torn mid-sequence write)"
                            },
                        ));
                    }
                    if contents.last_id() != 0 {
                        last_id = contents.last_id();
                    }
                    out.segments.push(Segment {
                        seq: *seq,
                        path: path.clone(),
                        contents,
                    });
                    None
                }
            }
        };
        if let Some(reason) = rejection {
            out.notes
                .push(format!("segment {}: rejected: {reason}", path.display()));
            out.rejected.push(RejectedSegment {
                seq: *seq,
                path: path.clone(),
                reason,
            });
        }
    }
    Ok(out)
}

/// A segment already rotated out of the append path; compaction deletes it
/// once a snapshot watermark covers its last action.
#[derive(Debug, Clone)]
pub struct CompletedSegment {
    /// Sequence number.
    pub seq: u64,
    /// Segment file path.
    pub path: PathBuf,
    /// Last action id in the segment (0 = empty segment, always deletable).
    pub last_id: u64,
}

/// Where appending resumes inside an existing journal directory.
#[derive(Debug, Clone)]
pub struct ResumePoint {
    /// Sequence number of the segment to resume.
    pub seq: u64,
    /// Its path.
    pub path: PathBuf,
    /// Truncation offset (drops the torn tail, or everything past a
    /// recovery-detected gap).
    pub valid_len: u64,
}

/// The full plan for re-arming a segmented journal after recovery.
#[derive(Debug, Clone, Default)]
pub struct JournalResume {
    /// Segment to resume appending to (`None` = create a fresh one).
    pub resume: Option<ResumePoint>,
    /// Sequence number for the next *created* segment.
    pub next_seq: u64,
    /// Files to rename aside before any append.
    pub orphans: Vec<PathBuf>,
    /// Accepted segments older than the resume point (compaction
    /// candidates, oldest first).
    pub completed: Vec<CompletedSegment>,
    /// Last valid action id across the accepted segments.
    pub last_id: u64,
}

/// Builds the default resume plan from a directory read: resume the newest
/// accepted segment, orphan every rejected file.  `recover_engine` refines
/// this plan when replay stops early (a mid-sequence gap past the snapshot
/// watermark).
pub fn resume_plan(contents: &JournalDirContents) -> JournalResume {
    let max_seen = contents
        .segments
        .iter()
        .map(|s| s.seq)
        .chain(contents.rejected.iter().map(|r| r.seq))
        .max();
    let mut plan = JournalResume {
        next_seq: max_seen.map_or(1, |m| m + 1),
        orphans: contents.rejected.iter().map(|r| r.path.clone()).collect(),
        last_id: contents.last_id(),
        ..JournalResume::default()
    };
    if let Some((newest, older)) = contents.segments.split_last() {
        plan.resume = Some(ResumePoint {
            seq: newest.seq,
            path: newest.path.clone(),
            valid_len: newest.contents.valid_len,
        });
        plan.completed = older
            .iter()
            .map(|s| CompletedSegment {
                seq: s.seq,
                path: s.path.clone(),
                last_id: s.contents.last_id(),
            })
            .collect();
    }
    plan
}

/// The append side of a segmented journal: one active segment, rotation on
/// demand (or past a size backstop), compaction against snapshot
/// watermarks.
#[derive(Debug)]
pub struct SegmentedJournal {
    dir: PathBuf,
    fs: Fs,
    writer: JournalWriter,
    current_seq: u64,
    current_path: PathBuf,
    next_seq: u64,
    rotate_bytes: u64,
    last_id: u64,
    completed: Vec<CompletedSegment>,
    unsynced_batches: u64,
}

impl SegmentedJournal {
    /// Opens the journal according to `plan`: orphans rejected files, then
    /// resumes the newest accepted segment (truncating its tail to the
    /// plan's `valid_len`) or creates a fresh one.
    ///
    /// `rotate_bytes` is the size backstop (0 = rotate only on snapshots).
    pub fn open(
        dir: &Path,
        fs: &Fs,
        rotate_bytes: u64,
        plan: &JournalResume,
    ) -> io::Result<SegmentedJournal> {
        for orphan in &plan.orphans {
            let mut name = orphan
                .file_name()
                .map(|n| n.to_os_string())
                .unwrap_or_default();
            name.push(".");
            name.push(ORPHAN_SUFFIX);
            fs.rename(orphan, &orphan.with_file_name(name))?;
        }
        if !plan.orphans.is_empty() {
            fs.sync_dir(dir)?;
        }
        let (writer, current_seq, current_path, next_seq) = match &plan.resume {
            Some(point) => (
                JournalWriter::resume_with(&point.path, point.valid_len, fs)?,
                point.seq,
                point.path.clone(),
                plan.next_seq,
            ),
            None => {
                let path = dir.join(segment_file_name(plan.next_seq));
                let writer = JournalWriter::create_with(&path, fs)?;
                fs.sync_dir(dir)?;
                (writer, plan.next_seq, path, plan.next_seq + 1)
            }
        };
        Ok(SegmentedJournal {
            dir: dir.to_path_buf(),
            fs: fs.clone(),
            writer,
            current_seq,
            current_path,
            next_seq,
            rotate_bytes,
            last_id: plan.last_id,
            completed: plan.completed.clone(),
            unsynced_batches: 0,
        })
    }

    /// Convenience for tests and tools: read + plan + open in one call.
    pub fn open_dir(dir: &Path, fs: &Fs, rotate_bytes: u64) -> io::Result<SegmentedJournal> {
        let contents = read_journal_dir(dir, fs)
            .map_err(|e| io::Error::other(format!("journal dir unreadable: {e}")))?;
        Self::open(dir, fs, rotate_bytes, &resume_plan(&contents))
    }

    /// Appends one batch to the active segment, rotating first if the size
    /// backstop was reached.
    pub fn append_batch(&mut self, actions: &[Action]) -> io::Result<()> {
        if actions.is_empty() {
            return Ok(());
        }
        if self.rotate_bytes > 0 && self.writer.len() >= self.rotate_bytes {
            self.rotate()?;
        }
        self.writer.append_batch(actions)?;
        self.last_id = actions.last().expect("non-empty").id.0;
        self.unsynced_batches += 1;
        Ok(())
    }

    /// Closes the active segment (fsync) and starts a fresh one.  The
    /// engine calls this when dispatching a snapshot, so the snapshot's
    /// watermark lands on a segment boundary and compaction can delete
    /// whole segments.  A no-op on an empty active segment.
    pub fn rotate(&mut self) -> io::Result<()> {
        if self.writer.is_empty() {
            return Ok(());
        }
        // Seal the old segment first: if any step fails the writer is
        // untouched and the caller degrades with the journal consistent.
        self.writer.sync()?;
        let path = self.dir.join(segment_file_name(self.next_seq));
        let fresh = JournalWriter::create_with(&path, &self.fs)?;
        self.fs.sync_dir(&self.dir)?;
        self.completed.push(CompletedSegment {
            seq: self.current_seq,
            path: std::mem::replace(&mut self.current_path, path),
            last_id: self.last_id,
        });
        self.writer = fresh;
        self.current_seq = self.next_seq;
        self.next_seq += 1;
        self.unsynced_batches = 0;
        Ok(())
    }

    /// Deletes completed segments fully covered by a durable snapshot at
    /// `watermark` (last action id ≤ watermark).  The active segment is
    /// never deleted, and neither is any completed segment holding actions
    /// past the watermark — those are still needed for replay.  Returns
    /// how many segments were removed.
    pub fn compact(&mut self, watermark: u64) -> io::Result<u64> {
        let mut removed = 0;
        while let Some(seg) = self.completed.first() {
            if seg.last_id > watermark {
                break;
            }
            // Remove before un-listing: if the delete fails the segment
            // stays tracked and a later compaction retries.
            self.fs.remove_file(&seg.path)?;
            self.completed.remove(0);
            removed += 1;
        }
        if removed > 0 {
            self.fs.sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Re-arms a journal around a fresh segment after a degraded period:
    /// creates segment `seq` and fsyncs its directory entry, carrying the
    /// pre-degrade segments over as compaction candidates.  Nothing is
    /// appended yet — the caller appends and syncs the first batch, then
    /// publishes the snapshot that covers the un-journaled gap.
    pub fn rearm(
        dir: &Path,
        fs: &Fs,
        rotate_bytes: u64,
        seq: u64,
        completed: Vec<CompletedSegment>,
        last_id: u64,
    ) -> io::Result<SegmentedJournal> {
        let path = dir.join(segment_file_name(seq));
        let writer = JournalWriter::create_with(&path, fs)?;
        fs.sync_dir(dir)?;
        Ok(SegmentedJournal {
            dir: dir.to_path_buf(),
            fs: fs.clone(),
            writer,
            current_seq: seq,
            current_path: path,
            next_seq: seq + 1,
            rotate_bytes,
            last_id,
            completed,
            unsynced_batches: 0,
        })
    }

    /// Tears the journal down into degraded-mode bookkeeping: the sequence
    /// number the next fresh segment must use, and every on-disk segment
    /// (the active one included) as a compaction candidate once a later
    /// snapshot covers its ids.
    pub fn decommission(self) -> (u64, Vec<CompletedSegment>) {
        let mut segments = self.completed;
        segments.push(CompletedSegment {
            seq: self.current_seq,
            path: self.current_path,
            last_id: self.last_id,
        });
        (self.next_seq, segments)
    }

    /// Forces the active segment to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()?;
        self.unsynced_batches = 0;
        Ok(())
    }

    /// Batches appended since the last fsync of the active segment —
    /// exactly what a machine crash (not process crash) could lose.
    pub fn unsynced_batches(&self) -> u64 {
        self.unsynced_batches
    }

    /// Segments currently on disk (completed + active).
    pub fn segments(&self) -> u64 {
        self.completed.len() as u64 + 1
    }

    /// Sequence number of the active segment.
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// Last appended (or resumed) action id.
    pub fn last_id(&self) -> u64 {
        self.last_id
    }

    /// Whether the active segment has any batches.
    pub fn active_is_empty(&self) -> bool {
        self.writer.is_empty()
    }

    /// Bytes in the active segment.
    pub fn active_len(&self) -> u64 {
        self.writer.len().max(HEADER_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtim-segjournal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roots(ids: std::ops::RangeInclusive<u64>) -> Vec<Action> {
        ids.map(|i| Action::root(i, (i % 97) as u32)).collect()
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(0), "journal.rtaj");
        assert_eq!(segment_file_name(3), "journal.000003.rtaj");
        assert_eq!(parse_segment_seq("journal.rtaj"), Some(0));
        assert_eq!(parse_segment_seq("journal.000003.rtaj"), Some(3));
        assert_eq!(parse_segment_seq("journal.1234567.rtaj"), Some(1234567));
        assert_eq!(parse_segment_seq("snapshot.rtss"), None);
        assert_eq!(parse_segment_seq("journal.000003.rtaj.orphaned"), None);
        assert_eq!(parse_segment_seq("journal.abc.rtaj"), None);
    }

    #[test]
    fn rotation_splits_and_dir_read_reassembles() {
        let dir = temp_dir("rotate");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 0).unwrap();
        j.append_batch(&roots(1..=5)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(6..=8)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(9..=9)).unwrap();
        j.sync().unwrap();
        assert_eq!(j.segments(), 3);
        drop(j);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 3);
        assert_eq!(contents.actions(), 9);
        assert_eq!(contents.last_id(), 9);
        assert!(contents.rejected.is_empty());
        let all: Vec<u64> = contents
            .batches()
            .flat_map(|b| b.iter().map(|a| a.id.0))
            .collect();
        assert_eq!(all, (1..=9).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_backstop_rotates_automatically() {
        let dir = temp_dir("backstop");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 64).unwrap();
        let mut next = 1;
        for _ in 0..10 {
            j.append_batch(&roots(next..=next + 1)).unwrap();
            next += 2;
        }
        assert!(j.segments() > 1, "64-byte backstop must have rotated");
        drop(j);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.actions(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_deletes_only_covered_segments() {
        let dir = temp_dir("compact");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 0).unwrap();
        j.append_batch(&roots(1..=4)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(5..=8)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(9..=12)).unwrap();
        // Watermark 6 covers segment 1 (ids 1–4) but NOT segment 2 (5–8).
        assert_eq!(j.compact(6).unwrap(), 1);
        assert_eq!(j.segments(), 2);
        // Watermark 8 now covers segment 2; the active segment survives.
        assert_eq!(j.compact(8).unwrap(), 1);
        assert_eq!(j.segments(), 1);
        j.sync().unwrap();
        drop(j);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.actions(), 4, "only the active segment remains");
        assert_eq!(contents.last_id(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_single_file_reads_as_segment_zero_and_resumes() {
        let dir = temp_dir("legacy");
        let fs = Fs::real();
        let mut w = JournalWriter::create(dir.join(LEGACY_JOURNAL_FILE)).unwrap();
        w.append_batch(&roots(1..=3)).unwrap();
        drop(w);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 1);
        assert_eq!(contents.segments[0].seq, 0);
        let mut j = SegmentedJournal::open(&dir, &fs, 0, &resume_plan(&contents)).unwrap();
        j.append_batch(&roots(4..=5)).unwrap();
        j.rotate().unwrap();
        assert_eq!(j.current_seq(), 1, "first rotation leaves the legacy name");
        drop(j);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.actions(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_newest_segment_is_tolerated() {
        let dir = temp_dir("torn-newest");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 0).unwrap();
        j.append_batch(&roots(1..=4)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(5..=6)).unwrap();
        drop(j);
        // Tear the newest segment.
        let newest = dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&newest, bytes).unwrap();
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.actions(), 6);
        assert!(contents.rejected.is_empty());
        assert!(contents.notes.iter().any(|n| n.contains("torn tail")));
        // Resume truncates the tear and appends cleanly.
        let mut j = SegmentedJournal::open(&dir, &fs, 0, &resume_plan(&contents)).unwrap();
        j.append_batch(&roots(7..=7)).unwrap();
        drop(j);
        assert_eq!(read_journal_dir(&dir, &fs).unwrap().actions(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_middle_segment_keeps_its_prefix_and_later_segments() {
        let dir = temp_dir("torn-middle");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 0).unwrap();
        j.append_batch(&roots(1..=4)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(5..=6)).unwrap();
        j.append_batch(&roots(7..=8)).unwrap();
        j.rotate().unwrap();
        j.append_batch(&roots(9..=12)).unwrap();
        drop(j);
        // Tear the MIDDLE segment (seq 2 holds ids 5–8 in two batches):
        // its second batch loses 3 bytes.
        let middle = dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&middle).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&middle, bytes).unwrap();
        let contents = read_journal_dir(&dir, &fs).unwrap();
        // Seq 1 whole, seq 2's valid prefix (first batch), and — because a
        // snapshot may cover the hole — seq 3 is still accepted: whether
        // its actions are served is decided by replay-time id-continuity
        // enforcement against the snapshot watermark, not at read time.
        assert_eq!(contents.segments.len(), 3);
        assert_eq!(contents.segments[1].contents.last_id(), 6);
        assert_eq!(contents.last_id(), 12);
        assert!(contents.rejected.is_empty());
        assert!(contents
            .notes
            .iter()
            .any(|n| n.contains("torn mid-sequence")));
        // Resume continues after the newest segment.
        let mut j = SegmentedJournal::open(&dir, &fs, 0, &resume_plan(&contents)).unwrap();
        j.append_batch(&roots(13..=14)).unwrap();
        drop(j);
        assert_eq!(read_journal_dir(&dir, &fs).unwrap().last_id(), 14);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_segment_is_rejected_alone_and_orphaned() {
        let dir = temp_dir("corrupt-middle");
        let fs = Fs::real();
        let mut w = JournalWriter::create(dir.join(segment_file_name(1))).unwrap();
        w.append_batch(&roots(1..=4)).unwrap();
        drop(w);
        std::fs::write(dir.join(segment_file_name(2)), b"not a journal").unwrap();
        let mut w = JournalWriter::create(dir.join(segment_file_name(3))).unwrap();
        w.append_batch(&roots(9..=12)).unwrap();
        drop(w);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 2);
        assert_eq!(contents.rejected.len(), 1);
        assert_eq!(contents.rejected[0].seq, 2);
        assert_eq!(contents.last_id(), 12);
        // Opening orphans only the corrupt file.
        drop(SegmentedJournal::open(&dir, &fs, 0, &resume_plan(&contents)).unwrap());
        assert!(dir.join("journal.000002.rtaj.orphaned").exists());
        assert!(dir.join(segment_file_name(3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rearm_opens_a_fresh_segment_and_decommission_tracks_every_file() {
        let dir = temp_dir("rearm");
        let fs = Fs::real();
        let mut j = SegmentedJournal::open_dir(&dir, &fs, 0).unwrap();
        j.append_batch(&roots(1..=4)).unwrap();
        let (next_seq, stale) = j.decommission();
        assert_eq!(next_seq, 2);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].last_id, 4);
        // A degraded period loses ids 5–9; the re-armed segment resumes at
        // 10 and a snapshot at watermark ≥ 9 covers the gap.
        let mut j = SegmentedJournal::rearm(&dir, &fs, 0, next_seq, stale, 4).unwrap();
        j.append_batch(&roots(10..=12)).unwrap();
        j.sync().unwrap();
        assert_eq!(j.segments(), 2);
        assert_eq!(
            j.compact(12).unwrap(),
            1,
            "stale pre-degrade segment deleted"
        );
        drop(j);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 1);
        assert_eq!(contents.last_id(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn id_overlap_across_segments_is_rejected() {
        let dir = temp_dir("overlap");
        let fs = Fs::real();
        let mut w = JournalWriter::create(dir.join(segment_file_name(1))).unwrap();
        w.append_batch(&roots(1..=6)).unwrap();
        drop(w);
        // A stale segment whose ids rewind.
        let mut w = JournalWriter::create(dir.join(segment_file_name(2))).unwrap();
        w.append_batch(&roots(4..=9)).unwrap();
        drop(w);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 1);
        assert_eq!(contents.last_id(), 6);
        assert_eq!(contents.rejected.len(), 1);
        assert!(contents.rejected[0].reason.contains("id overlap"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gaps_across_segments_are_legal() {
        let dir = temp_dir("gap");
        let fs = Fs::real();
        let mut w = JournalWriter::create(dir.join(segment_file_name(1))).unwrap();
        w.append_batch(&roots(1..=6)).unwrap();
        drop(w);
        // A post-degraded-period segment: ids resume past a gap.
        let mut w = JournalWriter::create(dir.join(segment_file_name(2))).unwrap();
        w.append_batch(&roots(20..=24)).unwrap();
        drop(w);
        let contents = read_journal_dir(&dir, &fs).unwrap();
        assert_eq!(contents.segments.len(), 2);
        assert_eq!(contents.last_id(), 24);
        assert!(contents.rejected.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_empty_journal() {
        let dir = std::env::temp_dir().join(format!("rtim-segjournal-none-{}", std::process::id()));
        let contents = read_journal_dir(&dir, &Fs::real()).unwrap();
        assert_eq!(contents.actions(), 0);
        assert_eq!(resume_plan(&contents).next_seq, 1);
    }
}

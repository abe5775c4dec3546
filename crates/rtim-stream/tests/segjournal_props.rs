//! Property tests for the segmented journal layer: rotation is invisible
//! to replay, truncation anywhere yields a typed outcome (never a panic,
//! never an invented record), and compaction only ever deletes segments
//! fully covered by the watermark.

use proptest::prelude::*;
use rtim_stream::{
    read_journal_dir, resume_plan, segment_file_name, Action, Fs, JournalWriter, SegmentedJournal,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rtim-segjournal-props-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Batches of consecutive-id root actions: `sizes[i]` actions per batch,
/// global ids 1..=total.
fn build_batches(sizes: &[usize]) -> Vec<Vec<Action>> {
    let mut id = 0u64;
    sizes
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    id += 1;
                    Action::root(id, (id % 61) as u32)
                })
                .collect()
        })
        .collect()
}

/// Writes `batches` split across `segments` files (`journal.000001.rtaj`
/// onward), splitting at batch granularity.
fn write_segments(dir: &Path, batches: &[Vec<Action>], segments: usize) {
    let per = batches.len().div_ceil(segments).max(1);
    for (seg, chunk) in batches.chunks(per).enumerate() {
        let mut w = JournalWriter::create(dir.join(segment_file_name(seg as u64 + 1))).unwrap();
        for batch in chunk {
            w.append_batch(batch).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same batch sequence written as one segment or rotated across
    /// up to four reads back bit-identically: rotation is a storage
    /// detail, not a replay semantic.
    #[test]
    fn rotated_segments_replay_identically_to_a_single_file(
        sizes in prop::collection::vec(1usize..6, 1..20),
        segments in 1usize..5,
    ) {
        let batches = build_batches(&sizes);
        let single = temp_dir("single");
        let rotated = temp_dir("rotated");
        write_segments(&single, &batches, 1);
        write_segments(&rotated, &batches, segments);
        let a = read_journal_dir(&single, &Fs::real()).unwrap();
        let b = read_journal_dir(&rotated, &Fs::real()).unwrap();
        prop_assert!(a.rejected.is_empty());
        prop_assert!(b.rejected.is_empty());
        let flat_a: Vec<&Vec<Action>> = a.batches().collect();
        let flat_b: Vec<&Vec<Action>> = b.batches().collect();
        prop_assert_eq!(flat_a, flat_b);
        prop_assert_eq!(a.last_id(), b.last_id());
        std::fs::remove_dir_all(&single).ok();
        std::fs::remove_dir_all(&rotated).ok();
    }

    /// Truncating any segment at any byte offset never panics: the read
    /// comes back `Ok`, every surviving batch is one of the originals,
    /// ids stay strictly increasing, and the resume plan still yields a
    /// usable next sequence number.
    #[test]
    fn truncation_at_any_offset_keeps_a_typed_valid_prefix(
        sizes in prop::collection::vec(1usize..6, 1..20),
        segments in 1usize..5,
        cut_seg in 0usize..4,
        cut_frac in 0.0f64..1.0,
    ) {
        let batches = build_batches(&sizes);
        let dir = temp_dir("truncate");
        write_segments(&dir, &batches, segments);
        let victim = dir.join(segment_file_name((cut_seg % segments) as u64 + 1));
        if victim.exists() {
            let len = std::fs::metadata(&victim).unwrap().len();
            let keep = (len as f64 * cut_frac) as u64;
            let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
            f.set_len(keep).unwrap();
        }
        let contents = read_journal_dir(&dir, &Fs::real()).unwrap();
        let mut last = 0u64;
        for batch in contents.batches() {
            // Every surviving batch is an original, whole batch.
            let original = batches
                .iter()
                .find(|b| b.first().map(|a| a.id) == batch.first().map(|a| a.id));
            prop_assert_eq!(Some(batch), original);
            for a in batch {
                prop_assert!(a.id.0 > last, "ids must stay strictly increasing");
                last = a.id.0;
            }
        }
        let plan = resume_plan(&contents);
        prop_assert!(plan.next_seq >= 1);
        prop_assert!(plan.next_seq > contents.segments.iter().map(|s| s.seq).max().unwrap_or(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction at any watermark never deletes a batch the watermark
    /// does not cover: every action with id past the watermark survives.
    #[test]
    fn compaction_never_deletes_a_needed_segment(
        sizes in prop::collection::vec(1usize..6, 1..20),
        rotate_every in 1usize..5,
        watermark in 0u64..120,
    ) {
        let batches = build_batches(&sizes);
        let total: u64 = sizes.iter().map(|&n| n as u64).sum();
        let dir = temp_dir("compact");
        let mut journal = SegmentedJournal::open_dir(&dir, &Fs::real(), 0).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            journal.append_batch(batch).unwrap();
            if (i + 1) % rotate_every == 0 {
                journal.rotate().unwrap();
            }
        }
        journal.sync().unwrap();
        journal.compact(watermark).unwrap();
        drop(journal);
        let contents = read_journal_dir(&dir, &Fs::real()).unwrap();
        prop_assert!(contents.rejected.is_empty());
        let surviving: Vec<u64> = contents
            .batches()
            .flat_map(|b| b.iter().map(|a| a.id.0))
            .collect();
        for id in watermark + 1..=total {
            prop_assert!(
                surviving.contains(&id),
                "action {id} past watermark {watermark} was compacted away"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

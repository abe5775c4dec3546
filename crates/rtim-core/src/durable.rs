//! Durable state of an [`EngineHandle`](crate::EngineHandle) pipeline:
//! the journal state machine, the background snapshot writer, and the
//! snapshot cadence (see `docs/RECOVERY.md`).
//!
//! The engine thread owns exactly one [`Persistence`] and drives it
//! between commands.  Persistence never traces: it notes which lifecycle
//! transitions happened ([`Persistence::take_events`]) and the engine
//! thread records them on its trace lane.

use crate::config::SimConfig;
use crate::engine::SimEngine;
use crate::framework::FrameworkKind;
use crate::handle::{EngineStats, Reply};
use crate::snapshot::{
    recover_engine_with, write_snapshot_atomic_with, write_snapshot_bytes_atomic, EngineSnapshot,
    SNAPSHOT_FILE,
};
use rtim_stream::persist::faultfs::Fs;
use rtim_stream::persist::segjournal::{
    segment_file_name, CompletedSegment, SegmentedJournal, LEGACY_JOURNAL_FILE,
};
use rtim_stream::trace::TraceStage;
use rtim_stream::Action;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;

/// File name of the first (legacy, pre-rotation) journal segment inside a
/// persistence directory.  Rotated segments are named `journal.NNNNNN.rtaj`
/// (see [`rtim_stream::persist::segjournal::segment_file_name`]).
pub const JOURNAL_FILE: &str = LEGACY_JOURNAL_FILE;

/// When the engine thread `fsync`s the active journal segment.
///
/// Journal *writes* happen on every batch regardless; the policy only
/// controls how much a **machine** crash (power loss) can lose.  A process
/// crash (SIGKILL) loses nothing under any policy — the page cache
/// survives the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync on the batch path; segments are synced when rotated and
    /// when a snapshot is dispatched.  Fastest; a machine crash can lose
    /// every batch since the last rotation/snapshot.
    #[default]
    Never,
    /// fsync after every appended batch: a machine crash loses at most the
    /// batch being written.  Slowest.
    EveryBatch,
    /// fsync once every `n` appended batches (`n` is clamped to ≥ 1): a
    /// machine crash loses at most `n` batches.
    EveryNBatches(u64),
    /// Like [`FsyncPolicy::Never`], but stated explicitly: durability
    /// points are exactly the snapshot dispatches.
    OnSnapshot,
}

/// The durability condition of a running pipeline, surfaced through
/// [`EngineStats::durability_state`] and
/// [`EngineReport::durability`](crate::EngineReport::durability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurabilityState {
    /// No persistence configured; nothing is journaled.
    Disabled,
    /// The journal is armed: every ingested batch hits the disk before the
    /// engine processes it.
    Durable,
    /// A journal I/O error suspended journaling.  Ingest continues from
    /// memory; the engine retries with exponential backoff, and a
    /// successful re-arm writes a snapshot covering the un-journaled gap
    /// before the state returns to [`DurabilityState::Durable`].
    Degraded,
}

impl DurabilityState {
    /// The stable wire encoding used by the `STATS` protocol frame.
    pub fn wire_code(self) -> u64 {
        match self {
            DurabilityState::Disabled => 0,
            DurabilityState::Durable => 1,
            DurabilityState::Degraded => 2,
        }
    }

    /// Decodes [`DurabilityState::wire_code`].
    pub fn from_wire_code(code: u64) -> Option<DurabilityState> {
        match code {
            0 => Some(DurabilityState::Disabled),
            1 => Some(DurabilityState::Durable),
            2 => Some(DurabilityState::Degraded),
            _ => None,
        }
    }
}

/// Durable-state options of an [`EngineHandle`](crate::EngineHandle):
/// where the snapshot and journal segments live, how often to snapshot,
/// when to fsync, and which (possibly fault-injected) filesystem to do it
/// all through.
///
/// With persistence enabled the engine thread (1) recovers at startup —
/// latest valid snapshot plus the segmented journal past its watermark,
/// falling back to full replay if the snapshot is corrupt — and
/// (2) journals every accepted batch *before* processing it, so the files
/// always cover the engine state.  Snapshots are encoded and written on a
/// background writer thread; the journal rotates at each snapshot and
/// segments older than the latest durable snapshot are deleted.  See
/// `docs/RECOVERY.md`.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding [`SNAPSHOT_FILE`] and the journal segments
    /// (created if absent).
    pub dir: PathBuf,
    /// Write a snapshot automatically after this many window slides
    /// (`0` = only on explicit
    /// [`IngestSender::snapshot`](crate::IngestSender::snapshot) requests).
    pub snapshot_every_slides: u64,
    /// Journal fsync cadence.
    pub fsync: FsyncPolicy,
    /// Size backstop for journal rotation in bytes (`0` = rotate only when
    /// snapshots are dispatched).  Keeps single segments bounded when
    /// snapshots are rare.
    pub rotate_segment_bytes: u64,
    /// The filesystem every journal/snapshot operation flows through —
    /// [`Fs::real`] in production, a fault-injecting handle in tests.
    pub fs: Fs,
}

impl PersistOptions {
    /// Persistence in `dir` with manual-only snapshots and default
    /// policies.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            dir: dir.into(),
            snapshot_every_slides: 0,
            fsync: FsyncPolicy::default(),
            rotate_segment_bytes: 0,
            fs: Fs::real(),
        }
    }

    /// Enables background snapshots every `slides` window slides.
    pub fn with_snapshot_every_slides(mut self, slides: u64) -> Self {
        self.snapshot_every_slides = slides;
        self
    }

    /// Sets the journal fsync cadence.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the journal-segment size backstop.
    pub fn with_rotate_segment_bytes(mut self, bytes: u64) -> Self {
        self.rotate_segment_bytes = bytes;
        self
    }

    /// Routes all durability I/O through `fs` (fault injection).
    pub fn with_fs(mut self, fs: Fs) -> Self {
        self.fs = fs;
        self
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the first (legacy-named) journal segment.  Recovery reads
    /// every `journal*.rtaj` segment in the directory, not just this one.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// Result of a successful snapshot request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Id of the last action covered by the snapshot (the journal offset
    /// recovery will replay from).
    pub watermark: u64,
    /// Encoded snapshot size in bytes.
    pub bytes: u64,
}

/// Why a snapshot request did not produce a snapshot.
#[derive(Debug)]
pub enum SnapshotRequestError {
    /// The pipeline was spawned without
    /// [`HandleOptions::persist`](crate::HandleOptions::persist).
    Disabled,
    /// The engine thread has shut down.
    Closed,
    /// Capturing or writing the snapshot failed; the message says why.
    Failed(String),
}

impl std::fmt::Display for SnapshotRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotRequestError::Disabled => {
                write!(
                    f,
                    "snapshotting is not configured (no persistence directory)"
                )
            }
            SnapshotRequestError::Closed => write!(f, "engine pipeline is shut down"),
            SnapshotRequestError::Failed(msg) => write!(f, "snapshot failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotRequestError {}

/// The answer to a snapshot request.
pub(crate) type SnapshotResult = Result<SnapshotInfo, SnapshotRequestError>;

/// Failed re-arm retries double their batch-count backoff up to this cap.
const REARM_BACKOFF_CAP: u64 = 1024;

/// One snapshot handed to the writer thread.  The state was *captured* on
/// the engine thread (preserving the one-writer invariant and the
/// command-order guarantee); encoding and file I/O happen off-thread so
/// slides never stall behind the disk.
struct SnapshotJob {
    snapshot: EngineSnapshot,
    /// `None` for a slide-cadence background snapshot (nobody to answer).
    reply: Option<Reply<SnapshotResult>>,
}

/// The writer thread's completion report, drained by the engine thread
/// (which compacts the journal behind a successful watermark): the
/// written snapshot's `(watermark, slides)`, or why the write failed.
type SnapshotDone = Result<(u64, u64), String>;

/// The background snapshot writer thread: encodes and atomically writes
/// each captured snapshot, answers the requester directly, and reports
/// back to the engine thread.  Exits when the job channel closes at
/// shutdown (after finishing every queued job).
fn snapshot_writer_loop(
    opts: PersistOptions,
    jobs: Receiver<SnapshotJob>,
    done: mpsc::Sender<SnapshotDone>,
) {
    let path = opts.snapshot_path();
    while let Ok(job) = jobs.recv() {
        let watermark = job.snapshot.watermark;
        let slides = job.snapshot.slides;
        let bytes = job.snapshot.encode();
        let result =
            write_snapshot_bytes_atomic(&path, &bytes, &opts.fs).map_err(|e| e.to_string());
        if let Some(reply) = job.reply {
            let info = result
                .clone()
                .map(|bytes| SnapshotInfo { watermark, bytes });
            reply.send(info.map_err(SnapshotRequestError::Failed));
        }
        let _ = done.send(result.map(|_| (watermark, slides)));
    }
}

/// The journal state machine (see `docs/RECOVERY.md`): `Durable` appends
/// every batch before it is ingested; any journal I/O error drops to
/// `Degraded`, which keeps serving from memory and retries a full re-arm —
/// fresh segment plus a snapshot covering the un-journaled gap — with
/// exponential batch-count backoff.
#[derive(Default)]
enum Durability {
    /// No persistence configured.
    #[default]
    Disabled,
    /// Journal armed.
    Durable(SegmentedJournal),
    /// Journaling suspended after an I/O error.
    Degraded {
        /// Batches ingested without journal coverage since the degrade.
        lost_batches: u64,
        /// Current backoff width in batches.
        backoff: u64,
        /// Batches left before the next re-arm attempt.
        until_retry: u64,
        /// Sequence number the re-armed fresh segment will use.
        next_seq: u64,
        /// Pre-degrade segments still on disk: compaction candidates once
        /// a post-re-arm snapshot covers them.
        stale: Vec<CompletedSegment>,
    },
}

impl Durability {
    /// A fresh degraded period that retries at the next batch.
    fn degraded(lost_batches: u64, next_seq: u64, stale: Vec<CompletedSegment>) -> Durability {
        Durability::Degraded {
            lost_batches,
            backoff: 1,
            until_retry: 1,
            next_seq,
            stale,
        }
    }

    fn state(&self) -> DurabilityState {
        match self {
            Durability::Disabled => DurabilityState::Disabled,
            Durability::Durable(_) => DurabilityState::Durable,
            Durability::Degraded { .. } => DurabilityState::Degraded,
        }
    }

    fn lag_batches(&self) -> u64 {
        match self {
            Durability::Disabled => 0,
            Durability::Durable(journal) => journal.unsynced_batches(),
            Durability::Degraded { lost_batches, .. } => *lost_batches,
        }
    }
}

/// The snapshot writer thread and both ends of its channels.
struct SnapshotWriter {
    jobs: mpsc::Sender<SnapshotJob>,
    done: Receiver<SnapshotDone>,
    thread: JoinHandle<()>,
}

/// Everything durable owned by the engine thread: the journal state
/// machine, the background snapshot writer, and snapshot-cadence
/// bookkeeping.  Disabled persistence opens no files and spawns no thread.
#[derive(Default)]
pub(crate) struct Persistence {
    /// The options and writer thread; `None` when persistence is disabled
    /// (and after shutdown).
    disk: Option<(PersistOptions, SnapshotWriter)>,
    durability: Durability,
    /// A dispatched snapshot has not completed yet.  Gates *background*
    /// triggers only; explicit requests always enqueue (the writer
    /// serializes them).
    snapshot_in_flight: bool,
    /// Engine slide count at the last successful snapshot write.
    last_snapshot_slides: u64,
    /// Slide count at which the next background snapshot dispatches.
    next_background_at: u64,
    /// Lifecycle transitions not yet collected by the engine thread.
    events: Vec<(TraceStage, u16)>,
}

impl Persistence {
    /// Builds the engine and its durable state: without options a fresh
    /// engine and nothing else; with options the recovered engine, the
    /// resumed journal and the snapshot writer thread.  Every disk failure
    /// degrades (typed, retried with backoff) instead of dying or silently
    /// going non-durable.  Also returns the id of the last action the
    /// engine state covers.
    pub(crate) fn open(
        config: SimConfig,
        kind: FrameworkKind,
        opts: Option<PersistOptions>,
    ) -> (SimEngine, u64, Persistence) {
        let mut persistence = Persistence::default();
        let Some(opts) = opts else {
            return (SimEngine::new(config, kind), 0, persistence);
        };
        let (engine, watermark) = if let Err(e) = opts.fs.create_dir_all(&opts.dir) {
            eprintln!(
                "rtim-engine: cannot create persistence directory {}: {e}; \
                 degraded (will retry)",
                opts.dir.display()
            );
            persistence.durability = Durability::degraded(0, 1, Vec::new());
            (SimEngine::new(config, kind), 0)
        } else {
            let outcome = recover_engine_with(config, kind, &opts.dir, &opts.fs);
            for note in &outcome.notes {
                eprintln!("rtim-engine recovery: {note}");
            }
            let resume = outcome.journal_resume;
            let journal =
                SegmentedJournal::open(&opts.dir, &opts.fs, opts.rotate_segment_bytes, &resume);
            persistence.durability = match journal {
                Ok(journal) => Durability::Durable(journal),
                Err(e) => {
                    eprintln!(
                        "rtim-engine: cannot arm the journal in {}: {e}; degraded (will retry)",
                        opts.dir.display()
                    );
                    Durability::degraded(0, resume.next_seq, resume.completed)
                }
            };
            persistence.last_snapshot_slides = outcome.snapshot_slides;
            (outcome.engine, outcome.watermark)
        };
        persistence.next_background_at = engine.slides_processed() + opts.snapshot_every_slides;
        let (jobs, job_rx) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let writer_opts = opts.clone();
        let thread = std::thread::Builder::new()
            .name("rtim-snapwriter".into())
            .spawn(move || snapshot_writer_loop(writer_opts, job_rx, done_tx))
            .expect("spawn snapshot writer thread");
        persistence.disk = Some((opts, SnapshotWriter { jobs, done, thread }));
        (engine, watermark, persistence)
    }

    /// The current durability condition.
    pub(crate) fn state(&self) -> DurabilityState {
        self.durability.state()
    }

    /// The lifecycle transitions since the last call, oldest first, as
    /// `(stage, aux)` trace events: a degrade, a re-arm (aux: the batches
    /// the degraded period never journaled), a snapshot dispatch.
    pub(crate) fn take_events(&mut self) -> Vec<(TraceStage, u16)> {
        std::mem::take(&mut self.events)
    }

    /// Runs `op` on the armed journal (a no-op in any other state).  A
    /// failure drops the journal to `Degraded`, counting `lost` batches as
    /// un-journaled and keeping every on-disk segment tracked for
    /// compaction after a later covering snapshot.
    fn on_journal(
        &mut self,
        what: &str,
        lost: u64,
        op: impl FnOnce(&mut SegmentedJournal) -> io::Result<()>,
    ) {
        let Durability::Durable(journal) = &mut self.durability else {
            return;
        };
        let Err(e) = op(journal) else {
            return;
        };
        eprintln!("rtim-engine: {what} failed ({e}); journaling degraded, will re-arm");
        if let Durability::Durable(journal) = std::mem::take(&mut self.durability) {
            let (next_seq, stale) = journal.decommission();
            self.durability = Durability::degraded(lost, next_seq, stale);
        }
        let aux = DurabilityState::Degraded.wire_code() as u16;
        self.events.push((TraceStage::Degrade, aux));
    }

    /// Journals one rebased batch ahead of ingestion, driving the
    /// durability state machine.  Returns `true` when a degraded-mode
    /// re-arm just succeeded: the caller passes it on to
    /// [`Persistence::ingested`] once the batch is in the engine.
    pub(crate) fn journal(&mut self, batch: &[Action]) -> bool {
        let Some((opts, _)) = &self.disk else {
            return false;
        };
        match &mut self.durability {
            Durability::Disabled => false,
            Durability::Durable(_) => {
                let fsync = opts.fsync;
                // A failed batch's durability is unknown at best: count it
                // lost, so the re-arm snapshot is required to cover it.
                self.on_journal("journal append", 1, |j| {
                    j.append_batch(batch)?;
                    match fsync {
                        FsyncPolicy::EveryBatch => j.sync(),
                        FsyncPolicy::EveryNBatches(n) if j.unsynced_batches() >= n.max(1) => {
                            j.sync()
                        }
                        _ => Ok(()),
                    }
                });
                false
            }
            Durability::Degraded {
                lost_batches,
                backoff,
                until_retry,
                next_seq,
                stale,
            } => {
                if *until_retry > 1 {
                    *until_retry -= 1;
                    *lost_batches += 1;
                    return false;
                }
                match try_rearm(opts, batch, *next_seq, stale.clone()) {
                    Ok(journal) => {
                        eprintln!(
                            "rtim-engine: journal re-armed on segment {next_seq} after \
                             {lost_batches} un-journaled batches; writing the covering snapshot"
                        );
                        let lost = (*lost_batches).min(u16::MAX.into()) as u16;
                        self.events.push((TraceStage::Rearm, lost));
                        self.durability = Durability::Durable(journal);
                        true
                    }
                    Err(e) => {
                        *backoff = (*backoff * 2).min(REARM_BACKOFF_CAP);
                        *until_retry = *backoff;
                        *lost_batches += 1;
                        eprintln!(
                            "rtim-engine: journal re-arm failed ({e}); \
                             retrying in {backoff} batches"
                        );
                        false
                    }
                }
            }
        }
    }

    /// After a batch is in the engine: completes the re-arm that
    /// [`Persistence::journal`] reported (`rearmed`), then dispatches a
    /// slide-cadence background snapshot when due (between batches, never
    /// mid-slide — slides never span batches).
    pub(crate) fn ingested(&mut self, engine: &SimEngine, rearmed: bool) {
        if rearmed {
            self.finish_rearm(engine);
        }
        let Some((opts, _)) = &self.disk else {
            return;
        };
        // At most one background snapshot is in flight; a trigger that
        // lands while one is being written waits for the first slide that
        // finds the writer idle.
        if opts.snapshot_every_slides > 0
            && !self.snapshot_in_flight
            && engine.slides_processed() >= self.next_background_at
        {
            self.dispatch_snapshot(engine, None);
        }
    }

    /// Completes a re-arm: writes a snapshot covering everything ingested
    /// so far — including every batch the degraded period never journaled
    /// — *synchronously* on the engine thread.  Re-arming must prove its
    /// covering snapshot before the pipeline claims durability again; a
    /// failure here drops straight back to degraded (doubled backoff
    /// happens at the next failed re-arm, not here — the journal side
    /// already worked).
    fn finish_rearm(&mut self, engine: &SimEngine) {
        let Some((opts, _)) = &self.disk else {
            return;
        };
        let written = engine
            .snapshot()
            .map_err(|e| io::Error::other(e.to_string()))
            .and_then(|snap| {
                write_snapshot_atomic_with(&opts.snapshot_path(), &snap, &opts.fs)
                    .map(|_| (snap.watermark, snap.slides))
            });
        match written {
            Ok((watermark, slides)) => {
                self.snapshot_written(watermark, slides);
                eprintln!(
                    "rtim-engine: durability restored (covering snapshot at watermark \
                     {watermark})"
                );
            }
            Err(e) => self.on_journal("re-arm covering snapshot", 0, |_| Err(e)),
        }
    }

    /// Captures the engine state and hands it to the snapshot writer
    /// thread; `reply` (`None` for a background snapshot) gets the answer.
    /// The journal rotates first (rotation seals and fsyncs the active
    /// segment), so the snapshot's watermark lands on a segment boundary
    /// and completion can compact whole segments — and the journal is
    /// never less durable than the snapshot that watermarks it.
    pub(crate) fn dispatch_snapshot(
        &mut self,
        engine: &SimEngine,
        reply: Option<Reply<SnapshotResult>>,
    ) {
        self.on_journal("journal rotation", 0, SegmentedJournal::rotate);
        let Some((opts, writer)) = &self.disk else {
            if let Some(reply) = reply {
                reply.send(Err(SnapshotRequestError::Disabled));
            }
            return;
        };
        self.next_background_at = engine.slides_processed() + opts.snapshot_every_slides;
        let snapshot = match engine.snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                match reply {
                    Some(reply) => reply.send(Err(SnapshotRequestError::Failed(e.to_string()))),
                    None => eprintln!("rtim-engine: background snapshot capture failed: {e}"),
                }
                return;
            }
        };
        match writer.jobs.send(SnapshotJob { snapshot, reply }) {
            Ok(()) => {
                self.snapshot_in_flight = true;
                self.events.push((TraceStage::Lifecycle, 0));
            }
            Err(mpsc::SendError(job)) => {
                // The writer thread is gone (it panicked); answer the
                // requester rather than hanging it.
                if let Some(reply) = job.reply {
                    let gone = "snapshot writer thread is gone".to_string();
                    reply.send(Err(SnapshotRequestError::Failed(gone)));
                }
            }
        }
    }

    /// Records a snapshot that reached the disk and compacts the journal
    /// behind its watermark.
    fn snapshot_written(&mut self, watermark: u64, slides: u64) {
        self.last_snapshot_slides = self.last_snapshot_slides.max(slides);
        if let Durability::Durable(journal) = &mut self.durability {
            if let Err(e) = journal.compact(watermark) {
                eprintln!(
                    "rtim-engine: journal compaction failed ({e}); \
                     covered segments will be retried"
                );
            }
        }
    }

    /// Absorbs writer-thread completions.  Runs between commands, which
    /// keeps compaction on the engine thread (the journal has exactly one
    /// owner).
    pub(crate) fn drain_completions(&mut self) {
        while let Some(done) = self.disk.as_ref().and_then(|(_, w)| w.done.try_recv().ok()) {
            self.absorb(done);
        }
    }

    /// One writer-thread completion: a success records the snapshot
    /// cadence and compacts the journal behind the new watermark; a
    /// failure is logged and the next trigger retries.
    fn absorb(&mut self, done: SnapshotDone) {
        self.snapshot_in_flight = false;
        match done {
            Ok((watermark, slides)) => self.snapshot_written(watermark, slides),
            Err(e) => eprintln!("rtim-engine: background snapshot write failed: {e}"),
        }
    }

    /// Point-in-time durability fields of a stats answer (`stats.slides`
    /// must already be current).
    pub(crate) fn fill_stats(&self, stats: &mut EngineStats) {
        stats.journal_lag_batches = self.durability.lag_batches();
        stats.snapshot_age_slides = match self.durability {
            Durability::Disabled => 0,
            _ => stats.slides.saturating_sub(self.last_snapshot_slides),
        };
        stats.durability_state = self.durability.state().wire_code();
    }

    /// Drain-complete teardown: final journal fsync, then close the job
    /// channel, join the writer thread (it finishes every queued job
    /// first) and absorb the remaining completions.
    pub(crate) fn shutdown(&mut self) {
        self.on_journal("final journal sync", 0, SegmentedJournal::sync);
        if let Some((_, writer)) = self.disk.take() {
            drop(writer.jobs);
            let _ = writer.thread.join();
            for done in writer.done.try_iter() {
                self.absorb(done);
            }
        }
    }
}

/// One re-arm attempt: (re)create the persistence directory, open a fresh
/// segment at `seq`, append and fsync the current batch.  The same `seq`
/// is reused across failed attempts — recreating truncates a torn previous
/// attempt, so no two segments ever hold overlapping ids.
fn try_rearm(
    opts: &PersistOptions,
    batch: &[Action],
    seq: u64,
    stale: Vec<CompletedSegment>,
) -> io::Result<SegmentedJournal> {
    let (dir, fs) = (&opts.dir, &opts.fs);
    fs.create_dir_all(dir)?;
    let result = SegmentedJournal::rearm(dir, fs, opts.rotate_segment_bytes, seq, stale, 0)
        .and_then(|mut journal| {
            journal.append_batch(batch)?;
            journal.sync()?;
            Ok(journal)
        });
    if result.is_err() {
        // Best effort: a torn half-armed segment must not linger.
        let _ = fs.remove_file(&dir.join(segment_file_name(seq)));
    }
    result
}

//! Asynchronous ingest pipeline: a bounded queue in front of a dedicated
//! engine thread.
//!
//! A long-running front-end (the `rtim-server` TCP server, or any embedded
//! deployment) must not let slow checkpoint updates stall network reads, and
//! must not let concurrent producers touch the [`SimEngine`] — interner
//! minting and pool sharding are only bit-identical to sequential replay
//! when exactly **one** thread drives the engine.  The [`EngineHandle`]
//! packages both requirements (the Polynesia-style ingest/analytics split
//! named in the roadmap):
//!
//! * producers hand action batches to an [`IngestSender`], which enqueues
//!   them on a **bounded** `std::sync::mpsc` channel — when the queue is
//!   full, [`IngestSender::try_ingest`] hands the batch back instead of
//!   blocking, so callers can reply with explicit backpressure;
//! * a single engine thread owns the [`SimEngine`], dequeues commands in
//!   arrival order, and drains batches through
//!   [`SimEngine::ingest_batch`] — the queue order *is* the stream order;
//! * queries and stats requests travel through the same queue, so a
//!   producer that ingests then queries observes its own writes.
//!
//! ## Id rebasing
//!
//! Each sender owns a private id space: its batches must carry strictly
//! increasing action ids, and replies may reference any earlier action *of
//! the same sender*.  The engine thread rebases every action onto the global
//! arrival order (the paper's sequence-based timestamps) and remaps parent
//! references through a per-sender table; a parent that was never seen (or
//! was pruned by [`HandleOptions::remap_horizon`]) degrades the reply to a
//! root action, mirroring [`rtim_stream::PropagationIndex`]'s horizon
//! semantics.  Because rebasing happens on the engine thread in dequeue
//! order, the resulting global stream is exactly the concatenation of the
//! batches in queue-arrival order — replaying that concatenation offline
//! through [`SimEngine::run_stream`] reproduces the server's answers
//! bit for bit (enable [`HandleOptions::journal`] to capture it).

use crate::config::SimConfig;
use crate::engine::{SimEngine, SlideReport};
use crate::framework::{FrameworkKind, Solution};
use crate::metrics::EngineMetrics;
use crate::trace::{FlightRecorder, SpanCtx, TraceConfig, TraceWriter};
pub use crate::snapshot::SNAPSHOT_FILE;
use crate::snapshot::{
    recover_engine_with, write_snapshot_atomic_with, write_snapshot_bytes_atomic, EngineSnapshot,
};
use fxhash::FxHashMap;
use rtim_stream::persist::faultfs::Fs;
use rtim_stream::persist::segjournal::{
    segment_file_name, CompletedSegment, SegmentedJournal, LEGACY_JOURNAL_FILE,
};
use rtim_stream::trace::{SlowOp, TraceStage, SLOW_STAGES};
use rtim_stream::{Action, ActionId, SocialStream};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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
/// [`EngineStats::durability_state`] and [`EngineReport::durability`].
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

/// Durable-state options of an [`EngineHandle`]: where the snapshot and
/// journal segments live, how often to snapshot, when to fsync, and which
/// (possibly fault-injected) filesystem to do it all through.
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
    /// (`0` = only on explicit [`IngestSender::snapshot`] requests).
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

/// Options of an [`EngineHandle`] pipeline.
#[derive(Debug, Clone)]
pub struct HandleOptions {
    /// Bounded queue capacity in **commands** (batches/queries), minimum 1.
    pub capacity: usize,
    /// Record the rebased arrival-order stream in memory for later replay
    /// ([`EngineReport::journal`]).  Costs one `Action` (24 bytes) per
    /// ingested action; meant for tests and short capture runs.  For the
    /// durable on-disk journal, see [`HandleOptions::persist`].
    pub journal: bool,
    /// If set, per-sender id-remap entries more than this many positions
    /// behind the newest assigned id are pruned (amortized); replies to
    /// pruned ids degrade to roots.  `None` retains every mapping.
    pub remap_horizon: Option<u64>,
    /// Durable snapshot/journal persistence (`None` = in-memory only).
    pub persist: Option<PersistOptions>,
    /// Flight-recorder tracing (default: disabled).  When
    /// [`TraceConfig::is_enabled`] the spawned pipeline creates a
    /// [`FlightRecorder`], stamps per-stage spans on the engine thread,
    /// and promotes slow ops; see `docs/TRACING.md`.
    pub trace: TraceConfig,
}

impl Default for HandleOptions {
    fn default() -> Self {
        HandleOptions {
            capacity: 64,
            journal: false,
            remap_horizon: None,
            persist: None,
            trace: TraceConfig::default(),
        }
    }
}

impl HandleOptions {
    /// Sets the bounded queue capacity (clamped to at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Enables the in-memory arrival-order journal.
    pub fn with_journal(mut self, journal: bool) -> Self {
        self.journal = journal;
        self
    }

    /// Bounds the per-sender id-remap tables to `horizon` positions.
    pub fn with_remap_horizon(mut self, horizon: u64) -> Self {
        self.remap_horizon = Some(horizon.max(1));
        self
    }

    /// Enables durable persistence (disk journal + snapshots + startup
    /// recovery).
    pub fn with_persistence(mut self, persist: PersistOptions) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Enables flight-recorder tracing with the given configuration.
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// Aggregate counters of a running (or finished) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EngineStats {
    /// Actions ingested (after rebasing; equals the last assigned id).
    pub actions: u64,
    /// Ingest batches dequeued.
    pub batches: u64,
    /// Window slides fed to the framework.
    pub slides: u64,
    /// Checkpoints currently maintained.
    pub checkpoints: u64,
    /// Total oracle element updates.
    pub oracle_updates: u64,
    /// Nanoseconds spent feeding slides (resolution + window + checkpoints).
    pub feed_nanos: u64,
    /// Nanoseconds spent answering queries on the engine thread.
    pub query_nanos: u64,
    /// Commands waiting in the queue when these stats were answered.
    pub queue_depth: u64,
    /// Maximum queue depth observed at any dequeue.
    pub max_queue_depth: u64,
    /// Distinct users interned so far.
    pub users: u64,
    /// Replies whose parent was unknown to the sender's remap table (never
    /// sent, or pruned by the horizon) and were degraded to roots.
    pub orphaned_replies: u64,
    /// Checkpoints migrated between shards by the pool's timing-driven
    /// placement (0 under sequential execution).
    pub shard_migrations: u64,
    /// Smallest per-shard feed-time EWMA, in nanoseconds (0 under
    /// sequential execution or before the first sharded feed).
    pub shard_ewma_min_nanos: u64,
    /// Largest per-shard feed-time EWMA, in nanoseconds.
    pub shard_ewma_max_nanos: u64,
    /// Ingested batches whose journal persistence is not yet guaranteed:
    /// batches appended since the last fsync while durable, batches never
    /// journaled since the degrade while degraded, 0 without persistence.
    pub journal_lag_batches: u64,
    /// Window slides processed since the last *successful* snapshot write
    /// (equals `slides` when none has ever been written).
    pub snapshot_age_slides: u64,
    /// [`DurabilityState`] wire code (see
    /// [`DurabilityState::wire_code`]): 0 disabled, 1 durable, 2 degraded.
    pub durability_state: u64,
}

/// Number of trailing [`SlideReport`]s retained in an [`EngineReport`].
pub const RECENT_SLIDES: usize = 64;

/// Final state returned when the pipeline shuts down.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Counters at drain completion.
    pub stats: EngineStats,
    /// The SIM answer over the final window (seeds in raw id space).
    pub final_solution: Solution,
    /// The rebased arrival-order stream, if journaling was enabled.
    pub journal: Option<SocialStream>,
    /// The last (up to) [`RECENT_SLIDES`] slide reports, oldest first,
    /// each stamped with the queue depth observed when its batch was
    /// dequeued ([`SlideReport::queue_depth`]) — a shape sample of the
    /// pipeline's tail, not bulk storage (aggregates live in `stats`).
    pub recent_slides: Vec<SlideReport>,
    /// The durability condition at shutdown.
    pub durability: DurabilityState,
}

/// Why an ingest attempt did not enqueue.
#[derive(Debug)]
pub enum IngestError {
    /// The bounded queue is full; the batch is handed back so the caller
    /// can retry or reply with backpressure.
    Full(Vec<Action>),
    /// The engine thread has shut down.
    Closed,
    /// The batch violates the sender's id-space invariants; the message
    /// names the first violation.
    Invalid(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Full(batch) => {
                write!(f, "ingest queue full ({} actions rejected)", batch.len())
            }
            IngestError::Closed => write!(f, "engine pipeline is shut down"),
            IngestError::Invalid(msg) => write!(f, "invalid batch: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

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
    /// The pipeline was spawned without [`HandleOptions::persist`].
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
                write!(f, "snapshotting is not configured (no persistence directory)")
            }
            SnapshotRequestError::Closed => write!(f, "engine pipeline is shut down"),
            SnapshotRequestError::Failed(msg) => write!(f, "snapshot failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotRequestError {}

/// The answer to a snapshot request.
type SnapshotResult = Result<SnapshotInfo, SnapshotRequestError>;

/// Why a non-blocking asynchronous request did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncRequestError {
    /// The bounded queue is full; retry after the engine drains a slot.
    Full,
    /// The engine thread has shut down.
    Closed,
}

impl std::fmt::Display for AsyncRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsyncRequestError::Full => write!(f, "ingest queue full"),
            AsyncRequestError::Closed => write!(f, "engine pipeline is shut down"),
        }
    }
}

impl std::error::Error for AsyncRequestError {}

/// A request answered through a [`CompletionSink`] (see
/// [`IngestSender::try_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Answer the SIM query for the current window.
    Query,
    /// Report aggregate pipeline counters.
    Stats,
    /// Write a durable snapshot now.
    Snapshot,
}

/// The payload of an asynchronously completed request.
#[derive(Debug)]
pub enum CompletionPayload {
    /// Answer to [`Request::Query`].
    Solution(Solution),
    /// Answer to [`Request::Stats`].
    Stats(EngineStats),
    /// Answer to [`Request::Snapshot`].
    Snapshot(Result<SnapshotInfo, SnapshotRequestError>),
}

impl From<Solution> for CompletionPayload {
    fn from(solution: Solution) -> Self {
        CompletionPayload::Solution(solution)
    }
}

impl From<EngineStats> for CompletionPayload {
    fn from(stats: EngineStats) -> Self {
        CompletionPayload::Stats(stats)
    }
}

impl From<SnapshotResult> for CompletionPayload {
    fn from(result: SnapshotResult) -> Self {
        CompletionPayload::Snapshot(result)
    }
}

/// One completed asynchronous request, tagged with the caller's token so
/// an event loop can demultiplex it back to the originating connection.
#[derive(Debug)]
pub struct Completion {
    /// The token the caller attached to the request (e.g. an encoded
    /// `(connection, correlation-id)` pair).
    pub token: u64,
    /// The engine's answer.
    pub payload: CompletionPayload,
}

/// A non-blocking reply route from the engine thread back to an
/// event-driven front-end.
///
/// The blocking request paths ([`IngestSender::query`] & friends) park the
/// calling thread on a one-shot channel — one parked thread per in-flight
/// request, exactly what a readiness-driven front-end must avoid.  A
/// `CompletionSink` instead carries (1) a plain mpsc sender the engine
/// pushes [`Completion`]s into and (2) a **waker** callback invoked after
/// each push.  An event loop passes a waker that writes one byte into its
/// self-pipe wakeup fd (registered in the same `poll(2)` set as the
/// sockets), so engine completions interrupt the poll like any other
/// readiness event and zero threads park per request.
#[derive(Clone)]
pub struct CompletionSink {
    tx: mpsc::Sender<Completion>,
    waker: Arc<dyn Fn() + Send + Sync>,
}

impl CompletionSink {
    /// Builds a sink from a completion queue and a wake callback.  The
    /// waker runs on the engine thread after every completion push; it
    /// must be cheap and non-blocking (a self-pipe write, a condvar
    /// notify).
    pub fn new(tx: mpsc::Sender<Completion>, waker: Arc<dyn Fn() + Send + Sync>) -> Self {
        CompletionSink { tx, waker }
    }

    /// Delivers one completion and wakes the receiver.  A gone receiver
    /// (the front-end already shut down) is ignored — completions are
    /// best-effort once nobody listens.
    fn complete(&self, token: u64, payload: CompletionPayload) {
        let _ = self.tx.send(Completion { token, payload });
        (self.waker)();
    }
}

impl std::fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSink").finish()
    }
}

/// The engine thread is gone (shut down or panicked); no more answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandleClosed;

impl std::fmt::Display for HandleClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine pipeline is shut down")
    }
}

impl std::error::Error for HandleClosed {}

/// Where the engine thread sends one request's answer.
enum Reply<T> {
    /// A blocking caller parked on a one-shot channel.
    Channel(mpsc::Sender<T>),
    /// An event-driven caller: the answer goes through the sink, tagged
    /// with the caller's token.
    Sink { token: u64, sink: CompletionSink },
}

impl<T: Into<CompletionPayload>> Reply<T> {
    /// Delivers the answer.  A requester that went away is ignored.
    fn send(self, value: T) {
        match self {
            Reply::Channel(tx) => drop(tx.send(value)),
            Reply::Sink { token, sink } => sink.complete(token, value.into()),
        }
    }
}

/// Commands crossing the bounded queue: one variant per request kind.
///
/// The [`SpanCtx`] carried by every request is `Copy` and stamped by the
/// front-end; blocking callers pass the all-zero default, which is never
/// sampled and costs nothing on the engine thread.
enum Command {
    /// An action batch from sender `source`, ids in the sender's space.
    Ingest {
        source: u64,
        actions: Vec<Action>,
        span: SpanCtx,
    },
    /// Answer the SIM query for the current window.
    Query {
        reply: Reply<Solution>,
        span: SpanCtx,
    },
    /// Report aggregate counters.
    Stats {
        reply: Reply<EngineStats>,
        span: SpanCtx,
    },
    /// Write a durable snapshot now (ordered like any other command, so it
    /// covers everything enqueued before it).
    Snapshot {
        reply: Reply<SnapshotResult>,
        span: SpanCtx,
    },
    /// Switch to draining: process what is queued, then exit.
    Shutdown,
}

/// Shared state between handle, senders and the engine thread.
///
/// Queue depth is derived from two **monotone** counters — commands
/// enqueued (bumped by producers after a successful send) and commands
/// drained (published by the engine after each dequeue) — combined with a
/// saturating subtraction.  A producer whose increment lags its send can
/// only make the derived depth read transiently *low*; it can never wrap
/// below zero or drift, which keeps the `max_queue_depth ≤ capacity`
/// invariant exact.
struct Shared {
    /// Commands successfully enqueued, ever.
    enqueued: AtomicU64,
    /// Commands dequeued by the engine, ever.
    drained: AtomicU64,
    /// Next sender (source) id.
    next_source: AtomicU64,
}

impl Shared {
    /// Commands waiting in the queue right now (approximate, never
    /// negative).
    fn depth(&self) -> usize {
        self.enqueued
            .load(Ordering::Acquire)
            .saturating_sub(self.drained.load(Ordering::Acquire)) as usize
    }
}

/// A per-producer ingest endpoint (one private id space each).
///
/// Obtained from [`EngineHandle::sender`]; not cloneable — each producer
/// (connection) gets its own sender so the engine can remap its ids
/// independently.
pub struct IngestSender {
    tx: SyncSender<Command>,
    shared: Arc<Shared>,
    source: u64,
    /// Largest id this sender has successfully enqueued.
    last_id: u64,
}

impl IngestSender {
    /// Validates the batch against this sender's id space.
    fn validate(&self, actions: &[Action]) -> Result<(), IngestError> {
        let mut last = self.last_id;
        for a in actions {
            if a.id.0 <= last {
                return Err(IngestError::Invalid(format!(
                    "action ids must be strictly increasing per sender: {} after {}",
                    a.id, ActionId(last)
                )));
            }
            if let Some(p) = a.parent {
                if p >= a.id {
                    return Err(IngestError::Invalid(format!(
                        "action {} replies to a non-earlier action {}",
                        a.id, p
                    )));
                }
            }
            last = a.id.0;
        }
        Ok(())
    }

    /// Enqueues a batch without blocking.  On a full queue the batch is
    /// handed back in [`IngestError::Full`] so the caller can retry or
    /// signal backpressure.  An empty batch is a no-op.
    pub fn try_ingest(&mut self, actions: Vec<Action>) -> Result<(), IngestError> {
        self.try_ingest_traced(actions, SpanCtx::default())
    }

    /// [`IngestSender::try_ingest`] with a trace span context: the
    /// front-end stamps socket-readable/parse/enqueue times so the engine
    /// thread can attribute queue wait and stage spans to the request.
    pub fn try_ingest_traced(
        &mut self,
        actions: Vec<Action>,
        span: SpanCtx,
    ) -> Result<(), IngestError> {
        if actions.is_empty() {
            return Ok(());
        }
        self.validate(&actions)?;
        let last = actions.last().expect("non-empty batch").id.0;
        match self.tx.try_send(Command::Ingest {
            source: self.source,
            actions,
            span,
        }) {
            Ok(()) => {
                self.shared.enqueued.fetch_add(1, Ordering::AcqRel);
                self.last_id = last;
                Ok(())
            }
            Err(TrySendError::Full(Command::Ingest { actions, .. })) => {
                Err(IngestError::Full(actions))
            }
            Err(TrySendError::Full(_)) => unreachable!("ingest command round-trips"),
            Err(TrySendError::Disconnected(_)) => Err(IngestError::Closed),
        }
    }

    /// Enqueues a batch, blocking while the queue is full.
    pub fn ingest(&mut self, actions: Vec<Action>) -> Result<(), IngestError> {
        self.ingest_traced(actions, SpanCtx::default())
    }

    /// [`IngestSender::ingest`] with a trace span context (see
    /// [`IngestSender::try_ingest_traced`]).
    pub fn ingest_traced(
        &mut self,
        actions: Vec<Action>,
        span: SpanCtx,
    ) -> Result<(), IngestError> {
        if actions.is_empty() {
            return Ok(());
        }
        self.validate(&actions)?;
        let last = actions.last().expect("non-empty batch").id.0;
        self.tx
            .send(Command::Ingest {
                source: self.source,
                actions,
                span,
            })
            .map_err(|_| IngestError::Closed)?;
        self.shared.enqueued.fetch_add(1, Ordering::AcqRel);
        self.last_id = last;
        Ok(())
    }

    /// Answers the SIM query (ordered after everything this sender already
    /// enqueued; blocks while the queue is full).
    pub fn query(&self) -> Result<Solution, HandleClosed> {
        round_trip(&self.tx, &self.shared, |reply| Command::Query {
            reply,
            span: SpanCtx::default(),
        })
    }

    /// Reports aggregate pipeline counters.
    pub fn stats(&self) -> Result<EngineStats, HandleClosed> {
        round_trip(&self.tx, &self.shared, |reply| Command::Stats {
            reply,
            span: SpanCtx::default(),
        })
    }

    /// Requests a durable snapshot covering everything this sender already
    /// enqueued (ordered through the same queue; blocks while it is full).
    pub fn snapshot(&self) -> Result<SnapshotInfo, SnapshotRequestError> {
        round_trip(&self.tx, &self.shared, |reply| Command::Snapshot {
            reply,
            span: SpanCtx::default(),
        })
        .map_err(|HandleClosed| SnapshotRequestError::Closed)?
    }

    /// Enqueues `request` without blocking; the answer arrives on `sink`
    /// tagged with `token`.  `span` is the front-end's trace context
    /// ([`SpanCtx::default`] when untraced).  A full queue is
    /// [`AsyncRequestError::Full`]: nothing was enqueued, retry later.
    pub fn try_request(
        &self,
        request: Request,
        token: u64,
        sink: &CompletionSink,
        span: SpanCtx,
    ) -> Result<(), AsyncRequestError> {
        let sink = sink.clone();
        let command = match request {
            Request::Query => Command::Query {
                reply: Reply::Sink { token, sink },
                span,
            },
            Request::Stats => Command::Stats {
                reply: Reply::Sink { token, sink },
                span,
            },
            Request::Snapshot => Command::Snapshot {
                reply: Reply::Sink { token, sink },
                span,
            },
        };
        match self.tx.try_send(command) {
            Ok(()) => {
                self.shared.enqueued.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(AsyncRequestError::Full),
            Err(TrySendError::Disconnected(_)) => Err(AsyncRequestError::Closed),
        }
    }

    /// Commands waiting in the queue right now (approximate).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth()
    }

    /// Largest action id this sender has successfully enqueued (0 = none).
    pub fn last_enqueued_id(&self) -> u64 {
        self.last_id
    }
}

/// A cheap, cloneable factory minting [`IngestSender`]s away from the
/// thread that owns the [`EngineHandle`] (e.g. a TCP acceptor thread that
/// needs a fresh sender — a fresh private id space — per connection).
#[derive(Clone)]
pub struct SenderSpawner {
    tx: SyncSender<Command>,
    shared: Arc<Shared>,
}

impl SenderSpawner {
    /// Creates a new producer endpoint with its own private id space.
    pub fn sender(&self) -> IngestSender {
        IngestSender {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
            source: self.shared.next_source.fetch_add(1, Ordering::AcqRel),
            last_id: 0,
        }
    }
}

impl std::fmt::Debug for SenderSpawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderSpawner").finish()
    }
}

/// Sends a request command and waits for the engine's reply.
fn round_trip<T>(
    tx: &SyncSender<Command>,
    shared: &Shared,
    make: impl FnOnce(Reply<T>) -> Command,
) -> Result<T, HandleClosed> {
    let (reply_tx, reply_rx) = mpsc::channel();
    tx.send(make(Reply::Channel(reply_tx))).map_err(|_| HandleClosed)?;
    shared.enqueued.fetch_add(1, Ordering::AcqRel);
    reply_rx.recv().map_err(|_| HandleClosed)
}

/// A [`SimEngine`] running on its own thread behind a bounded ingest queue.
///
/// See the [module docs](self) for the pipeline design.
///
/// # Example
///
/// ```
/// use rtim_core::{EngineHandle, FrameworkKind, HandleOptions, SimConfig};
/// use rtim_stream::Action;
///
/// let handle = EngineHandle::spawn(
///     SimConfig::new(2, 0.3, 8, 2),
///     FrameworkKind::Sic,
///     HandleOptions::default().with_capacity(8),
/// );
/// let mut sender = handle.sender();
/// sender
///     .ingest(vec![Action::root(1u64, 1u32), Action::reply(2u64, 2u32, 1u64)])
///     .unwrap();
/// let solution = sender.query().unwrap();
/// assert!(solution.value >= 2.0);
/// let report = handle.shutdown();
/// assert_eq!(report.stats.actions, 2);
/// ```
pub struct EngineHandle {
    tx: Option<SyncSender<Command>>,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<EngineReport>>,
    capacity: usize,
    metrics: Arc<EngineMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl EngineHandle {
    /// Spawns the engine thread and returns the pipeline handle.
    pub fn spawn(config: SimConfig, kind: FrameworkKind, options: HandleOptions) -> Self {
        let capacity = options.capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(capacity);
        let shared = Arc::new(Shared {
            enqueued: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            next_source: AtomicU64::new(0),
        });
        let metrics = Arc::new(EngineMetrics::new());
        // With tracing disabled (by config or by compiling out the `trace`
        // feature) no recorder exists and every instrumentation site below
        // stays on its `None` arm — the zero-allocation no-op path.
        let recorder = options
            .trace
            .is_enabled()
            .then(|| FlightRecorder::new(options.trace));
        let thread_shared = Arc::clone(&shared);
        let thread_metrics = Arc::clone(&metrics);
        let thread_recorder = recorder.clone();
        let thread = std::thread::Builder::new()
            .name("rtim-engine".into())
            .spawn(move || {
                engine_loop(
                    config,
                    kind,
                    options,
                    rx,
                    thread_shared,
                    thread_metrics,
                    thread_recorder,
                )
            })
            .expect("spawn engine thread");
        EngineHandle {
            tx: Some(tx),
            shared,
            thread: Some(thread),
            capacity,
            metrics,
            recorder,
        }
    }

    /// The pipeline's metrics registry: sliding latency histograms fed by
    /// the engine thread plus front-end counters.  Reading it (e.g. to
    /// serve `/metrics`) never enqueues an engine command, so scrapes
    /// cannot perturb the arrival order.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The pipeline's flight recorder, when tracing is enabled.  Dumping
    /// it (the `TRACE` command, `GET /trace`) reads the rings passively and
    /// never enqueues an engine command — the same scrape-determinism
    /// argument as [`EngineHandle::metrics`].
    pub fn trace_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.clone()
    }

    /// Creates a new producer endpoint with its own private id space.
    pub fn sender(&self) -> IngestSender {
        self.sender_spawner().sender()
    }

    /// A cloneable factory that can mint senders on other threads.
    pub fn sender_spawner(&self) -> SenderSpawner {
        SenderSpawner {
            tx: self.tx.clone().expect("handle not shut down"),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bounded queue capacity (commands).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Commands waiting in the queue right now (approximate).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth()
    }

    /// Answers the SIM query for the current window.
    pub fn query(&self) -> Result<Solution, HandleClosed> {
        let tx = self.tx.as_ref().expect("handle not shut down");
        round_trip(tx, &self.shared, |reply| Command::Query {
            reply,
            span: SpanCtx::default(),
        })
    }

    /// Reports aggregate pipeline counters.
    pub fn stats(&self) -> Result<EngineStats, HandleClosed> {
        let tx = self.tx.as_ref().expect("handle not shut down");
        round_trip(tx, &self.shared, |reply| Command::Stats {
            reply,
            span: SpanCtx::default(),
        })
    }

    /// Requests a durable snapshot of the current engine state.
    pub fn snapshot(&self) -> Result<SnapshotInfo, SnapshotRequestError> {
        let tx = self.tx.as_ref().expect("handle not shut down");
        round_trip(tx, &self.shared, |reply| Command::Snapshot {
            reply,
            span: SpanCtx::default(),
        })
        .map_err(|HandleClosed| SnapshotRequestError::Closed)?
    }

    /// Initiates a drain and waits for the engine thread to finish.
    ///
    /// The engine processes every command already enqueued (including
    /// batches that racing senders managed to enqueue before the drain
    /// caught up), then exits; later sends fail with
    /// [`IngestError::Closed`] / [`HandleClosed`].
    pub fn shutdown(mut self) -> EngineReport {
        self.shutdown_inner()
            .expect("engine thread already joined")
    }

    fn shutdown_inner(&mut self) -> Option<EngineReport> {
        if let Some(tx) = self.tx.take() {
            if tx.send(Command::Shutdown).is_ok() {
                self.shared.enqueued.fetch_add(1, Ordering::AcqRel);
            }
            drop(tx);
        }
        self.thread
            .take()
            .map(|t| t.join().expect("engine thread panicked"))
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        // A handle dropped without `shutdown()` still drains and joins, so
        // no engine thread is ever leaked mid-batch.
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("capacity", &self.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// Per-sender rebasing state held by the engine thread.
#[derive(Default)]
struct SourceState {
    /// sender-space id → assigned global id.
    remap: FxHashMap<u64, u64>,
}

/// Failed re-arm retries double their batch-count backoff up to this cap.
const REARM_BACKOFF_CAP: u64 = 1024;

/// One snapshot handed to the writer thread.  The state was *captured* on
/// the engine thread (preserving the one-writer invariant and the
/// command-order guarantee); encoding and file I/O happen off-thread so
/// slides never stall behind the disk.
struct SnapshotJob {
    snapshot: EngineSnapshot,
    path: PathBuf,
    fs: Fs,
    /// `None` for a slide-cadence background snapshot (nobody to answer).
    reply: Option<Reply<SnapshotResult>>,
}

/// The writer thread's completion report, drained by the engine thread
/// (which compacts the journal behind a successful watermark).
struct SnapshotDone {
    watermark: u64,
    slides: u64,
    result: Result<u64, String>,
}

/// The background snapshot writer thread: encodes and atomically writes
/// each captured snapshot, answers the requester directly, and reports
/// back to the engine thread.  Exits when the job channel closes at
/// shutdown (after finishing every queued job).
fn snapshot_writer_loop(jobs: Receiver<SnapshotJob>, done: mpsc::Sender<SnapshotDone>) {
    while let Ok(job) = jobs.recv() {
        let watermark = job.snapshot.watermark;
        let slides = job.snapshot.slides;
        let bytes = job.snapshot.encode();
        let result = write_snapshot_bytes_atomic(&job.path, &bytes, &job.fs)
            .map_err(|e| e.to_string());
        let info = result
            .as_ref()
            .map(|&bytes| SnapshotInfo { watermark, bytes })
            .map_err(|e| SnapshotRequestError::Failed(e.clone()));
        if let Some(reply) = job.reply {
            reply.send(info);
        }
        let _ = done.send(SnapshotDone {
            watermark,
            slides,
            result,
        });
    }
}

/// The engine thread's journal state machine (see `docs/RECOVERY.md`):
/// `Durable` appends every batch before it is ingested; any journal I/O
/// error drops to `Degraded`, which keeps serving from memory and retries
/// a full re-arm — fresh segment plus a snapshot covering the un-journaled
/// gap — with exponential batch-count backoff.
enum Durability {
    /// No persistence configured.
    Disabled,
    /// Journal armed.
    Durable(SegmentedJournal),
    /// Journaling suspended after an I/O error.
    Degraded {
        /// The first error of this degraded period.
        cause: String,
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

    /// Demotes a failed journal to `Degraded`, keeping every on-disk
    /// segment tracked for compaction after a later covering snapshot.
    fn degrade(journal: SegmentedJournal, lost: u64, what: &str, e: &io::Error) -> Durability {
        eprintln!("rtim-engine: {what} failed ({e}); journaling degraded, will re-arm");
        let cause = format!("{what}: {e}");
        let (next_seq, stale) = journal.decommission();
        Durability::Degraded {
            cause,
            lost_batches: lost,
            backoff: 1,
            until_retry: 1,
            next_seq,
            stale,
        }
    }
}

/// Everything durable owned by the engine thread: the journal state
/// machine, the background snapshot writer, and snapshot-cadence
/// bookkeeping.
struct Persistence {
    opts: PersistOptions,
    durability: Durability,
    job_tx: Option<mpsc::Sender<SnapshotJob>>,
    done_rx: Receiver<SnapshotDone>,
    writer: Option<JoinHandle<()>>,
    /// A dispatched snapshot has not completed yet.  Gates *background*
    /// triggers only; explicit requests always enqueue (the writer
    /// serializes them).
    snapshot_in_flight: bool,
    /// Engine slide count at the last successful snapshot write.
    last_snapshot_slides: u64,
    /// Slide count at which the next background snapshot dispatches.
    next_background_at: u64,
}

impl Persistence {
    /// Recovers the durable state and arms the machinery: runs the
    /// recovery decision tree over the persistence directory, orphans
    /// unreachable journal files, resumes the newest segment, and spawns
    /// the snapshot writer thread.  Every disk failure degrades (typed,
    /// retried with backoff) instead of dying or silently going
    /// non-durable.
    fn open(
        config: SimConfig,
        kind: FrameworkKind,
        opts: PersistOptions,
    ) -> (SimEngine, u64, Persistence) {
        let (job_tx, job_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let writer = std::thread::Builder::new()
            .name("rtim-snapwriter".into())
            .spawn(move || snapshot_writer_loop(job_rx, done_tx))
            .expect("spawn snapshot writer thread");
        let mut persistence = Persistence {
            opts,
            durability: Durability::Disabled,
            job_tx: Some(job_tx),
            done_rx,
            writer: Some(writer),
            snapshot_in_flight: false,
            last_snapshot_slides: 0,
            next_background_at: 0,
        };
        let opts = &persistence.opts;
        if let Err(e) = opts.fs.create_dir_all(&opts.dir) {
            eprintln!(
                "rtim-engine: cannot create persistence directory {}: {e}; \
                 degraded (will retry)",
                opts.dir.display()
            );
            persistence.durability = Durability::Degraded {
                cause: format!("create persistence directory: {e}"),
                lost_batches: 0,
                backoff: 1,
                until_retry: 1,
                next_seq: 1,
                stale: Vec::new(),
            };
            return (SimEngine::new(config, kind), 0, persistence);
        }
        let outcome = recover_engine_with(config, kind, &opts.dir, &opts.fs);
        for note in &outcome.notes {
            eprintln!("rtim-engine recovery: {note}");
        }
        persistence.durability = match SegmentedJournal::open(
            &opts.dir,
            &opts.fs,
            opts.rotate_segment_bytes,
            &outcome.journal_resume,
        ) {
            Ok(journal) => Durability::Durable(journal),
            Err(e) => {
                eprintln!(
                    "rtim-engine: cannot arm the journal in {}: {e}; degraded (will retry)",
                    opts.dir.display()
                );
                Durability::Degraded {
                    cause: format!("arm journal: {e}"),
                    lost_batches: 0,
                    backoff: 1,
                    until_retry: 1,
                    next_seq: outcome.journal_resume.next_seq,
                    stale: outcome.journal_resume.completed.clone(),
                }
            }
        };
        persistence.last_snapshot_slides = outcome.snapshot_slides;
        (outcome.engine, outcome.watermark, persistence)
    }

    /// Journals one rebased batch ahead of ingestion, driving the
    /// durability state machine.  Returns `true` when a degraded-mode
    /// re-arm just succeeded — the caller must publish the covering
    /// snapshot ([`Persistence::finish_rearm`]) right after ingesting this
    /// batch.
    fn journal_before_ingest(&mut self, batch: &[Action]) -> bool {
        let fsync = self.opts.fsync;
        let current = std::mem::replace(&mut self.durability, Durability::Disabled);
        let (next, rearmed) = match current {
            Durability::Disabled => (Durability::Disabled, false),
            Durability::Durable(mut journal) => {
                let result = journal.append_batch(batch).and_then(|()| {
                    let due = match fsync {
                        FsyncPolicy::EveryBatch => true,
                        FsyncPolicy::EveryNBatches(n) => journal.unsynced_batches() >= n.max(1),
                        FsyncPolicy::Never | FsyncPolicy::OnSnapshot => false,
                    };
                    if due {
                        journal.sync()
                    } else {
                        Ok(())
                    }
                });
                match result {
                    Ok(()) => (Durability::Durable(journal), false),
                    // The batch's durability is unknown at best: count it
                    // lost, so the re-arm snapshot is required to cover it.
                    Err(e) => (Durability::degrade(journal, 1, "journal append", &e), false),
                }
            }
            Durability::Degraded {
                cause,
                lost_batches,
                backoff,
                until_retry,
                next_seq,
                stale,
            } => {
                if until_retry > 1 {
                    let next = Durability::Degraded {
                        cause,
                        lost_batches: lost_batches + 1,
                        backoff,
                        until_retry: until_retry - 1,
                        next_seq,
                        stale,
                    };
                    (next, false)
                } else {
                    match self.try_rearm(batch, next_seq, stale.clone()) {
                        Ok(journal) => {
                            eprintln!(
                                "rtim-engine: journal re-armed on segment {next_seq} after \
                                 {lost_batches} un-journaled batches; writing the covering \
                                 snapshot"
                            );
                            (Durability::Durable(journal), true)
                        }
                        Err(e) => {
                            let widened = (backoff * 2).min(REARM_BACKOFF_CAP);
                            eprintln!(
                                "rtim-engine: journal re-arm failed ({e}); \
                                 retrying in {widened} batches"
                            );
                            let next = Durability::Degraded {
                                cause,
                                lost_batches: lost_batches + 1,
                                backoff: widened,
                                until_retry: widened,
                                next_seq,
                                stale,
                            };
                            (next, false)
                        }
                    }
                }
            }
        };
        self.durability = next;
        rearmed
    }

    /// One re-arm attempt: (re)create the persistence directory, open a
    /// fresh segment at `seq`, append and fsync the current batch.  The
    /// same `seq` is reused across failed attempts — recreating truncates
    /// a torn previous attempt, so no two segments ever hold overlapping
    /// ids.
    fn try_rearm(
        &self,
        batch: &[Action],
        seq: u64,
        stale: Vec<CompletedSegment>,
    ) -> io::Result<SegmentedJournal> {
        self.opts.fs.create_dir_all(&self.opts.dir)?;
        let result = SegmentedJournal::rearm(
            &self.opts.dir,
            &self.opts.fs,
            self.opts.rotate_segment_bytes,
            seq,
            stale,
            0,
        )
        .and_then(|mut journal| {
            journal.append_batch(batch)?;
            journal.sync()?;
            Ok(journal)
        });
        if result.is_err() {
            // Best effort: a torn half-armed segment must not linger.
            let _ = self
                .opts
                .fs
                .remove_file(&self.opts.dir.join(segment_file_name(seq)));
        }
        result
    }

    /// Completes a re-arm: writes a snapshot covering everything ingested
    /// so far — including every batch the degraded period never journaled
    /// — *synchronously* on the engine thread.  Re-arming must prove its
    /// covering snapshot before the pipeline claims durability again; a
    /// failure here drops straight back to degraded (doubled backoff
    /// happens at the next failed re-arm, not here — the journal side
    /// already worked).
    fn finish_rearm(&mut self, engine: &SimEngine) {
        let written = engine
            .snapshot()
            .map_err(|e| io::Error::other(e.to_string()))
            .and_then(|snap| {
                write_snapshot_atomic_with(&self.opts.snapshot_path(), &snap, &self.opts.fs)
                    .map(|_| (snap.watermark, snap.slides))
            });
        match written {
            Ok((watermark, slides)) => {
                self.last_snapshot_slides = slides;
                if let Durability::Durable(journal) = &mut self.durability {
                    if let Err(e) = journal.compact(watermark) {
                        eprintln!(
                            "rtim-engine: post-re-arm compaction failed ({e}); \
                             covered segments will be retried"
                        );
                    }
                }
                eprintln!(
                    "rtim-engine: durability restored (covering snapshot at watermark \
                     {watermark})"
                );
            }
            Err(e) => {
                let current = std::mem::replace(&mut self.durability, Durability::Disabled);
                self.durability = match current {
                    Durability::Durable(journal) => {
                        Durability::degrade(journal, 0, "re-arm covering snapshot", &e)
                    }
                    other => other,
                };
            }
        }
    }

    /// Captures the engine state and hands it to the snapshot writer
    /// thread.  The journal rotates first (rotation seals and fsyncs the
    /// active segment), so the snapshot's watermark lands on a segment
    /// boundary and completion can compact whole segments — and the
    /// journal is never less durable than the snapshot that watermarks it.
    fn dispatch_snapshot(&mut self, engine: &SimEngine, reply: Option<Reply<SnapshotResult>>) {
        let current = std::mem::replace(&mut self.durability, Durability::Disabled);
        self.durability = match current {
            Durability::Durable(mut journal) => match journal.rotate() {
                Ok(()) => Durability::Durable(journal),
                Err(e) => Durability::degrade(journal, 0, "journal rotation", &e),
            },
            other => other,
        };
        self.next_background_at =
            engine.slides_processed() + self.opts.snapshot_every_slides;
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
        let job = SnapshotJob {
            snapshot,
            path: self.opts.snapshot_path(),
            fs: self.opts.fs.clone(),
            reply,
        };
        let tx = self.job_tx.as_ref().expect("snapshot writer armed");
        match tx.send(job) {
            Ok(()) => self.snapshot_in_flight = true,
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

    /// Dispatches a slide-cadence background snapshot when due.  At most
    /// one snapshot is in flight; a trigger that lands while one is being
    /// written waits for the first slide that finds the writer idle.
    fn maybe_background_snapshot(&mut self, engine: &SimEngine) {
        if self.opts.snapshot_every_slides == 0
            || self.snapshot_in_flight
            || engine.slides_processed() < self.next_background_at
        {
            return;
        }
        self.dispatch_snapshot(engine, None);
    }

    /// Absorbs writer-thread completions: a success records the snapshot
    /// cadence and compacts the journal behind the new watermark; a
    /// failure is logged and the next trigger retries.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.snapshot_in_flight = false;
            match done.result {
                Ok(_) => {
                    self.last_snapshot_slides = self.last_snapshot_slides.max(done.slides);
                    if let Durability::Durable(journal) = &mut self.durability {
                        if let Err(e) = journal.compact(done.watermark) {
                            eprintln!(
                                "rtim-engine: journal compaction failed ({e}); \
                                 covered segments will be retried"
                            );
                        }
                    }
                }
                Err(e) => eprintln!("rtim-engine: background snapshot write failed: {e}"),
            }
        }
    }

    /// Point-in-time durability fields of a stats answer (`stats.slides`
    /// must already be current).
    fn fill_stats(&self, stats: &mut EngineStats) {
        stats.journal_lag_batches = self.durability.lag_batches();
        stats.snapshot_age_slides = stats.slides.saturating_sub(self.last_snapshot_slides);
        stats.durability_state = self.durability.state().wire_code();
    }

    /// Drain-complete teardown: final journal fsync, then close the job
    /// channel, join the writer thread (it finishes every queued job
    /// first) and absorb the remaining completions.
    fn shutdown(&mut self) {
        let current = std::mem::replace(&mut self.durability, Durability::Disabled);
        self.durability = match current {
            Durability::Durable(mut journal) => match journal.sync() {
                Ok(()) => Durability::Durable(journal),
                Err(e) => Durability::degrade(journal, 0, "final journal sync", &e),
            },
            other => other,
        };
        drop(self.job_tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        self.drain_completions();
    }
}

/// The engine thread: dequeues commands in arrival order and owns the
/// [`SimEngine`] exclusively (the one-writer invariant).
fn engine_loop(
    config: SimConfig,
    kind: FrameworkKind,
    options: HandleOptions,
    rx: Receiver<Command>,
    shared: Arc<Shared>,
    metrics: Arc<EngineMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
) -> EngineReport {
    let mut stats = EngineStats::default();
    let (mut engine, watermark, mut persistence) = match options.persist.clone() {
        Some(persist) => {
            let (engine, watermark, p) = Persistence::open(config, kind, persist);
            (engine, watermark, Some(p))
        }
        None => (SimEngine::new(config, kind), 0, None),
    };
    // Continuity after recovery: global ids continue past the journal,
    // actions/slides count everything the engine state covers (batches
    // count from this process start).
    let mut next_id: u64 = watermark + 1;
    stats.actions = watermark;
    stats.slides = engine.slides_processed();
    if let Some(p) = &mut persistence {
        p.next_background_at = stats.slides + p.opts.snapshot_every_slides;
    }

    let mut sources: FxHashMap<u64, SourceState> = FxHashMap::default();
    let mut last_prune: u64 = 0;
    let mut journal: Vec<Action> = Vec::new();
    let mut recent: std::collections::VecDeque<SlideReport> =
        std::collections::VecDeque::with_capacity(RECENT_SLIDES);
    let mut draining = false;
    let mut drained: u64 = 0;
    // The engine thread's single ring lane; `None` folds every
    // instrumentation site below to nothing (tracing disabled).
    let mut tracer: Option<TraceWriter> = recorder.as_ref().map(|r| r.writer());
    // Shard-migration lifecycle events are derived by diffing the pool's
    // cumulative counter across batches.
    let mut seen_migrations: u64 = engine.pool_stats().migrations;

    loop {
        let command = if draining {
            match rx.try_recv() {
                Ok(c) => c,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Ok(c) => c,
                Err(_) => break, // every sender and the handle are gone
            }
        };
        // Commands still waiting after this dequeue: 0 means the pipeline
        // kept up.  `drained` is engine-local truth published for readers;
        // a producer whose `enqueued` bump lags its send can only make
        // this read low, never wrap (see `Shared`).
        drained += 1;
        shared.drained.store(drained, Ordering::Release);
        let observed = shared
            .enqueued
            .load(Ordering::Acquire)
            .saturating_sub(drained) as usize;
        // `max` of two in-range u64s cannot overflow (audited alongside
        // the saturating nanos sums): the fold only ever widens to the
        // largest observed depth, which is bounded by the queue capacity.
        stats.max_queue_depth = stats.max_queue_depth.max(observed as u64);

        // Completions from the snapshot writer arrive between commands;
        // absorbing them here keeps compaction on the engine thread (the
        // journal has exactly one owner).
        if let Some(p) = &mut persistence {
            p.drain_completions();
        }

        match command {
            Command::Ingest {
                source,
                actions,
                span,
            } => {
                let t_dequeue = recorder.as_ref().map_or(0, |r| r.now_nanos());
                let state = sources.entry(source).or_default();
                let mut rebased = Vec::with_capacity(actions.len());
                for a in &actions {
                    let assigned = next_id;
                    next_id += 1;
                    let parent = a.parent.and_then(|p| state.remap.get(&p.0).copied());
                    if a.parent.is_some() && parent.is_none() {
                        stats.orphaned_replies += 1;
                    }
                    state.remap.insert(a.id.0, assigned);
                    rebased.push(Action {
                        id: ActionId(assigned),
                        user: a.user,
                        parent: parent.map(ActionId),
                    });
                }
                // Journal before processing: the disk always covers at
                // least what the engine state reflects, so a snapshot's
                // watermark can never run ahead of the journal.
                let mut journal_nanos = 0u64;
                let mut rearmed = false;
                if let Some(p) = &mut persistence {
                    let was_degraded =
                        matches!(p.durability.state(), DurabilityState::Degraded);
                    let lost = p.durability.lag_batches();
                    let t_journal = recorder.as_ref().map_or(0, |r| r.now_nanos());
                    rearmed = p.journal_before_ingest(&rebased);
                    if let Some(rec) = &recorder {
                        journal_nanos = rec.now_nanos().saturating_sub(t_journal);
                    }
                    // Durability transitions are lifecycle events: always
                    // recorded while tracing is enabled, never sampled out.
                    if let Some(t) = &mut tracer {
                        let now_degraded =
                            matches!(p.durability.state(), DurabilityState::Degraded);
                        if !was_degraded && now_degraded {
                            t.span(
                                TraceStage::Degrade.code(),
                                u64::MAX,
                                u32::MAX,
                                0,
                                DurabilityState::Degraded.wire_code() as u16,
                            );
                        }
                        if rearmed {
                            t.span(
                                TraceStage::Rearm.code(),
                                u64::MAX,
                                u32::MAX,
                                0,
                                lost.min(u16::MAX as u64) as u16,
                            );
                        }
                    }
                }
                let (reports, breakdown) = engine.ingest_batch_traced(&rebased);
                stats.batches += 1;
                stats.actions += rebased.len() as u64;
                stats.slides += reports.len() as u64;
                for mut report in reports {
                    report.queue_depth = Some(observed);
                    // Saturating: a months-long soak overflowing u64
                    // nanoseconds must pin at the maximum, not wrap.
                    stats.feed_nanos = stats.feed_nanos.saturating_add(report.feed_nanos);
                    metrics.record_slide(&report);
                    if recent.len() == RECENT_SLIDES {
                        recent.pop_front();
                    }
                    recent.push_back(report);
                }
                if options.journal {
                    journal.extend_from_slice(&rebased);
                }
                if let Some(h) = options.remap_horizon {
                    // Amortized prune, mirroring PropagationIndex: sweep
                    // only once the assigned range doubles the horizon.
                    if next_id - last_prune > 2 * h {
                        let cutoff = next_id.saturating_sub(h);
                        sources.retain(|_, s| {
                            s.remap.retain(|_, &mut assigned| assigned >= cutoff);
                            !s.remap.is_empty()
                        });
                        last_prune = next_id;
                    }
                }
                let mut snapshot_nanos = 0u64;
                if let Some(p) = &mut persistence {
                    let t_snap = recorder.as_ref().map_or(0, |r| r.now_nanos());
                    let was_in_flight = p.snapshot_in_flight;
                    if rearmed {
                        p.finish_rearm(&engine);
                    }
                    // Background snapshot trigger: every N slides, between
                    // batches (never mid-slide — slides never span batches).
                    p.maybe_background_snapshot(&engine);
                    if let Some(rec) = &recorder {
                        snapshot_nanos = rec.now_nanos().saturating_sub(t_snap);
                    }
                    if p.snapshot_in_flight && !was_in_flight {
                        if let Some(t) = &mut tracer {
                            // A dispatch always rotates the journal first.
                            t.span(TraceStage::Lifecycle.code(), u64::MAX, u32::MAX, 0, 0);
                        }
                    }
                }
                // Refresh the scrape-facing gauges after every batch, so
                // `/metrics` reflects the pipeline without ever sending a
                // command through the queue.
                let pool = engine.pool_stats();
                metrics.observe_arena(pool.arena_takes, pool.arena_hits);
                if pool.migrations > seen_migrations {
                    seen_migrations = pool.migrations;
                    if let Some(t) = &mut tracer {
                        t.span(TraceStage::Lifecycle.code(), u64::MAX, u32::MAX, 0, 1);
                    }
                }
                if let Some(t) = &mut tracer {
                    if span.sampled {
                        for (i, r) in engine.shard_feed_reports().iter().enumerate() {
                            if r.nanos > 0 {
                                t.span(
                                    TraceStage::ShardSpan.code(),
                                    span.conn,
                                    span.corr,
                                    r.nanos,
                                    i as u16,
                                );
                            }
                        }
                    }
                    trace_request(
                        t,
                        span,
                        t_dequeue,
                        &[
                            (TraceStage::JournalAppend, journal_nanos),
                            (TraceStage::Resolve, breakdown.resolve_nanos),
                            (TraceStage::ShardFeed, breakdown.feed_nanos),
                            (TraceStage::SnapshotDispatch, snapshot_nanos),
                        ],
                    );
                }
                finish_stats(&mut stats, &engine, &shared, persistence.as_ref());
                metrics.observe_stats(&stats);
                if let Some(rec) = &recorder {
                    metrics.observe_trace(rec.events_total(), rec.slow_total());
                }
            }
            Command::Query { reply, span } => {
                let t_dequeue = recorder.as_ref().map_or(0, |r| r.now_nanos());
                let started = Instant::now();
                let solution = engine.query();
                let nanos = started.elapsed().as_nanos() as u64;
                stats.query_nanos = stats.query_nanos.saturating_add(nanos);
                metrics.record_query(nanos);
                if let Some(t) = &mut tracer {
                    trace_request(t, span, t_dequeue, &[(TraceStage::OracleQuery, nanos)]);
                }
                reply.send(solution);
            }
            Command::Stats { reply, span } => {
                let t_dequeue = recorder.as_ref().map_or(0, |r| r.now_nanos());
                finish_stats(&mut stats, &engine, &shared, persistence.as_ref());
                metrics.observe_stats(&stats);
                if let Some(t) = &mut tracer {
                    trace_request(t, span, t_dequeue, &[]);
                }
                reply.send(stats);
            }
            Command::Snapshot { reply, span } => {
                let t_dequeue = recorder.as_ref().map_or(0, |r| r.now_nanos());
                match &mut persistence {
                    None => reply.send(Err(SnapshotRequestError::Disabled)),
                    Some(p) => {
                        p.dispatch_snapshot(&engine, Some(reply));
                        if let Some(t) = &mut tracer {
                            let nanos = t.now_nanos().saturating_sub(t_dequeue);
                            t.span(
                                TraceStage::SnapshotDispatch.code(),
                                u64::MAX,
                                u32::MAX,
                                nanos,
                                0,
                            );
                            t.span(TraceStage::Lifecycle.code(), u64::MAX, u32::MAX, 0, 0);
                        }
                    }
                }
                if let Some(t) = &mut tracer {
                    trace_request(t, span, t_dequeue, &[]);
                }
            }
            Command::Shutdown => {
                draining = true;
            }
        }
    }

    // Final fsync + writer-thread join happen before the stats freeze, so
    // the report reflects the closing durability state (a failed final
    // sync shows up as degraded).
    if let Some(p) = &mut persistence {
        p.shutdown();
    }
    finish_stats(&mut stats, &engine, &shared, persistence.as_ref());
    metrics.observe_stats(&stats);
    let durability = persistence
        .as_ref()
        .map_or(DurabilityState::Disabled, |p| p.durability.state());
    EngineReport {
        stats,
        final_solution: engine.query(),
        // Rebased ids are strictly increasing and parents resolve to
        // earlier assigned ids, so the journal is valid by construction.
        journal: options.journal.then(|| SocialStream::new_unchecked(journal)),
        recent_slides: recent.into_iter().collect(),
        durability,
    }
}

/// Fills the point-in-time fields of the stats snapshot.
fn finish_stats(
    stats: &mut EngineStats,
    engine: &SimEngine,
    shared: &Shared,
    persistence: Option<&Persistence>,
) {
    stats.checkpoints = engine.checkpoint_count() as u64;
    stats.oracle_updates = engine.oracle_updates();
    stats.users = engine.interner().len() as u64;
    stats.queue_depth = shared.depth() as u64;
    let pool = engine.pool_stats();
    stats.shard_migrations = pool.migrations;
    stats.shard_ewma_min_nanos = pool.ewma_min_nanos;
    stats.shard_ewma_max_nanos = pool.ewma_max_nanos;
    if let Some(p) = persistence {
        p.fill_stats(stats);
    }
}

/// Emits one request's measured stage spans onto the engine lane (ring
/// events for sampled frames only) and promotes the full breakdown to the
/// slow-op log when the end-to-end span crosses the configured threshold
/// (slow-op capture ignores sampling).
///
/// The end-to-end span starts at the front-end's socket-readable stamp
/// when present, else at the enqueue stamp, else at dequeue — so the
/// per-stage durations (disjoint sub-intervals measured against the same
/// recorder epoch) always sum to at most the recorded total.
fn trace_request(
    tracer: &mut TraceWriter,
    span: SpanCtx,
    t_dequeue: u64,
    stages: &[(TraceStage, u64)],
) {
    let end_nanos = tracer.now_nanos();
    let queue_wait = if span.enqueue_nanos > 0 {
        t_dequeue.saturating_sub(span.enqueue_nanos)
    } else {
        0
    };
    let mut slow_stages = [0u64; SLOW_STAGES];
    slow_stages[TraceStage::Parse.code() as usize] = span.parse_nanos;
    slow_stages[TraceStage::QueueWait.code() as usize] = queue_wait;
    for &(stage, nanos) in stages {
        slow_stages[stage.code() as usize] = nanos;
    }
    if span.sampled {
        if span.parse_nanos > 0 {
            tracer.span(
                TraceStage::Parse.code(),
                span.conn,
                span.corr,
                span.parse_nanos,
                0,
            );
        }
        tracer.span(
            TraceStage::QueueWait.code(),
            span.conn,
            span.corr,
            queue_wait,
            0,
        );
        for &(stage, nanos) in stages {
            if nanos > 0 {
                tracer.span(stage.code(), span.conn, span.corr, nanos, 0);
            }
        }
    }
    let start = if span.start_nanos > 0 {
        span.start_nanos
    } else if span.enqueue_nanos > 0 {
        span.enqueue_nanos
    } else {
        t_dequeue
    };
    let total = end_nanos.saturating_sub(start);
    if total >= tracer.recorder().config().slow_nanos {
        tracer.recorder().record_slow(SlowOp {
            conn: span.conn,
            corr: span.corr,
            kind: span.kind,
            start_nanos: start,
            total_nanos: total,
            stages: slow_stages,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn(capacity: usize, journal: bool) -> EngineHandle {
        EngineHandle::spawn(
            SimConfig::new(2, 0.3, 8, 2),
            FrameworkKind::Ic,
            HandleOptions::default()
                .with_capacity(capacity)
                .with_journal(journal),
        )
    }

    fn figure1_actions() -> Vec<Action> {
        vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
            Action::reply(4u64, 3u32, 1u64),
            Action::reply(5u64, 4u32, 3u64),
            Action::reply(6u64, 1u32, 3u64),
            Action::reply(7u64, 5u32, 3u64),
            Action::reply(8u64, 4u32, 7u64),
            Action::root(9u64, 2u32),
            Action::reply(10u64, 6u32, 9u64),
        ]
    }

    #[test]
    fn pipeline_matches_synchronous_engine() {
        let handle = spawn(4, true);
        let mut sender = handle.sender();
        let actions = figure1_actions();
        // Two batches with a cross-batch reply (a5..a10 reply to a3, a7, a9).
        sender.ingest(actions[..4].to_vec()).unwrap();
        sender.ingest(actions[4..].to_vec()).unwrap();
        let piped = sender.query().unwrap();

        let mut sync = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        sync.ingest_batch(&actions);
        assert_eq!(piped, sync.query());
        assert_eq!(piped.value, 6.0);

        let report = handle.shutdown();
        assert_eq!(report.stats.actions, 10);
        assert_eq!(report.stats.batches, 2);
        assert_eq!(report.stats.slides, 5);
        assert_eq!(report.stats.orphaned_replies, 0);
        assert_eq!(report.final_solution, piped);
        let journal = report.journal.unwrap();
        assert_eq!(journal.actions(), actions.as_slice());
        // Every slide carries the queue depth observed at its dequeue,
        // bounded by the configured capacity.
        assert_eq!(report.recent_slides.len(), 5);
        assert_eq!(
            report.recent_slides.iter().map(|r| r.actions).sum::<usize>(),
            10
        );
        assert!(report
            .recent_slides
            .iter()
            .all(|r| r.queue_depth.is_some_and(|d| d <= 4)));
    }

    #[test]
    fn sender_id_spaces_are_rebased_onto_arrival_order() {
        let handle = spawn(8, true);
        let mut a = handle.sender();
        let mut b = handle.sender();
        // Both senders use ids 1..; arrival order decides the global ids.
        a.ingest(vec![Action::root(1u64, 10u32)]).unwrap();
        b.ingest(vec![Action::root(1u64, 20u32)]).unwrap();
        a.ingest(vec![Action::reply(2u64, 11u32, 1u64)]).unwrap();
        b.ingest(vec![Action::reply(5u64, 21u32, 1u64)]).unwrap();
        let report = handle.shutdown();
        let journal = report.journal.unwrap();
        assert_eq!(
            journal.actions(),
            &[
                Action::root(1u64, 10u32),
                Action::root(2u64, 20u32),
                Action::reply(3u64, 11u32, 1u64), // sender a's a1 → global 1
                Action::reply(4u64, 21u32, 2u64), // sender b's a1 → global 2
            ]
        );
        assert_eq!(report.stats.orphaned_replies, 0);
    }

    #[test]
    fn invalid_batches_are_rejected_without_reaching_the_engine() {
        let handle = spawn(4, false);
        let mut sender = handle.sender();
        sender.ingest(vec![Action::root(5u64, 1u32)]).unwrap();
        // Non-increasing across batches.
        let err = sender.ingest(vec![Action::root(5u64, 1u32)]).unwrap_err();
        assert!(matches!(err, IngestError::Invalid(_)), "{err}");
        // Reply to the future (constructed without the debug assertion).
        let bad = Action {
            id: ActionId(9),
            user: rtim_stream::UserId(1),
            parent: Some(ActionId(9)),
        };
        assert!(matches!(
            sender.ingest(vec![bad]),
            Err(IngestError::Invalid(_))
        ));
        // The engine saw exactly one action.
        assert_eq!(handle.stats().unwrap().actions, 1);
    }

    #[test]
    fn unknown_parents_degrade_to_roots_and_are_counted() {
        let handle = spawn(4, true);
        let mut sender = handle.sender();
        sender
            .ingest(vec![Action::reply(7u64, 3u32, 2u64)]) // parent never sent
            .unwrap();
        let report = handle.shutdown();
        assert_eq!(report.stats.orphaned_replies, 1);
        assert_eq!(
            report.journal.unwrap().actions(),
            &[Action::root(1u64, 3u32)]
        );
    }

    #[test]
    fn try_ingest_hands_the_batch_back_when_full() {
        // Capacity 1 and no consumer progress guarantee: fill the queue
        // with the engine stalled behind a first batch... the engine is
        // fast, so instead race try_ingest until one Full is observed or
        // the queue accepted everything (both are valid outcomes); the
        // returned batch must be intact.
        let handle = spawn(1, false);
        let mut sender = handle.sender();
        let mut rejected = 0u32;
        let mut i = 0u64;
        while i < 200 {
            let batch = vec![Action::root(i + 1, (i % 7) as u32)];
            match sender.try_ingest(batch.clone()) {
                Ok(()) => i += 1,
                Err(IngestError::Full(back)) => {
                    assert_eq!(back, batch);
                    rejected += 1;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
        let stats = handle.shutdown().stats;
        assert_eq!(stats.actions, 200);
        assert!(stats.max_queue_depth <= 1, "{}", stats.max_queue_depth);
        // Not asserted: `rejected > 0` (timing-dependent), but typical.
        let _ = rejected;
    }

    #[test]
    fn remap_horizon_prunes_and_orphans_old_parents() {
        let handle = EngineHandle::spawn(
            SimConfig::new(2, 0.3, 8, 2),
            FrameworkKind::Ic,
            HandleOptions::default()
                .with_capacity(4)
                .with_remap_horizon(10),
        );
        let mut sender = handle.sender();
        for t in 1..=40u64 {
            sender.ingest(vec![Action::root(t, (t % 5) as u32)]).unwrap();
        }
        // A reply to id 1, long outside the horizon of 10.
        sender.ingest(vec![Action::reply(41u64, 9u32, 1u64)]).unwrap();
        let stats = handle.shutdown().stats;
        assert_eq!(stats.actions, 41);
        assert_eq!(stats.orphaned_replies, 1);
    }

    #[test]
    fn queries_and_stats_interleave_with_ingest() {
        let handle = spawn(16, false);
        let mut sender = handle.sender();
        for t in 1..=30u64 {
            sender
                .ingest(vec![if t % 3 == 0 {
                    Action::reply(t, (t % 4) as u32, t - 1)
                } else {
                    Action::root(t, (t % 4) as u32)
                }])
                .unwrap();
            if t % 10 == 0 {
                let s = sender.query().unwrap();
                assert!(s.value > 0.0);
            }
        }
        let stats = handle.stats().unwrap();
        assert_eq!(stats.actions, 30);
        assert!(stats.feed_nanos > 0);
        assert!(stats.query_nanos > 0);
        assert!(stats.users > 0);
        assert!(stats.checkpoints > 0);
        drop(sender);
        let report = handle.shutdown();
        assert_eq!(report.stats.actions, 30);
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rtim-handle-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn spawn_persistent(dir: &std::path::Path, every: u64) -> EngineHandle {
        EngineHandle::spawn(
            SimConfig::new(2, 0.3, 8, 2),
            FrameworkKind::Sic,
            HandleOptions::default()
                .with_capacity(8)
                .with_persistence(PersistOptions::new(dir).with_snapshot_every_slides(every)),
        )
    }

    /// A restarted pipeline (snapshot + journal-tail replay) continues the
    /// global id space and answers exactly like the uninterrupted one.
    #[test]
    fn persistent_pipeline_recovers_across_restarts() {
        let dir = temp_dir("restart");
        let actions = figure1_actions();

        // Life 1: ingest 6 actions, snapshot explicitly, ingest 2 more
        // (those live only in the journal), then stop.
        let answer_before = {
            let handle = spawn_persistent(&dir, 0);
            let mut sender = handle.sender();
            sender.ingest(actions[..4].to_vec()).unwrap();
            sender.ingest(actions[4..6].to_vec()).unwrap();
            let info = sender.snapshot().unwrap();
            assert_eq!(info.watermark, 6);
            assert!(info.bytes > 0);
            sender.ingest(actions[6..8].to_vec()).unwrap();
            let answer = sender.query().unwrap();
            handle.shutdown();
            answer
        };

        // Life 2: recovery replays the journal tail past the watermark.
        let handle = spawn_persistent(&dir, 0);
        let mut sender = handle.sender();
        assert_eq!(handle.query().unwrap(), answer_before);
        let stats = sender.stats().unwrap();
        assert_eq!(stats.actions, 8);
        // New ingests continue the global id space: this sender's fresh id
        // space rebases onto ids 9 and 10.
        sender.ingest(vec![actions[8], actions[9]]).unwrap();
        let recovered_final = sender.query().unwrap();
        let stats = sender.stats().unwrap();
        assert_eq!(stats.actions, 10);
        handle.shutdown();

        // Reference: an uninterrupted engine over the whole stream.
        let mut reference = SimEngine::new_sic(SimConfig::new(2, 0.3, 8, 2));
        reference.ingest_batch(&actions[..4]);
        reference.ingest_batch(&actions[4..6]);
        reference.ingest_batch(&actions[6..8]);
        reference.ingest_batch(&actions[8..]);
        let expected = reference.query();
        assert_eq!(recovered_final.seeds, expected.seeds);
        assert_eq!(recovered_final.value.to_bits(), expected.value.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Background snapshots fire every N slides and leave a loadable file.
    #[test]
    fn background_snapshots_are_written_every_n_slides() {
        let dir = temp_dir("auto");
        {
            let handle = spawn_persistent(&dir, 2);
            let mut sender = handle.sender();
            for t in 1..=12u64 {
                sender.ingest(vec![Action::root(t, (t % 5) as u32)]).unwrap();
            }
            // Snapshots are written off-thread; shutdown joins the writer,
            // so afterwards the triggered snapshot is on disk.  A fast
            // burst may find the writer busy at later triggers (at most
            // one snapshot is in flight), so only the first is guaranteed.
            handle.shutdown();
            let snap_path = dir.join(SNAPSHOT_FILE);
            assert!(snap_path.exists(), "no background snapshot written");
            let snap = crate::snapshot::load_snapshot(&snap_path).unwrap();
            assert!(snap.watermark >= 2, "watermark {}", snap.watermark);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without persistence, SNAPSHOT requests get the typed Disabled error.
    #[test]
    fn snapshot_without_persistence_is_disabled() {
        let handle = spawn(4, false);
        let sender = handle.sender();
        assert!(matches!(
            sender.snapshot(),
            Err(SnapshotRequestError::Disabled)
        ));
        handle.shutdown();
    }

    /// The two reply routes are one request path: between the same
    /// ingests, a sink-routed `try_request` and its blocking twin get
    /// equal answers for every request kind.
    #[test]
    fn blocking_and_sink_replies_agree_between_ingests() {
        let dir = temp_dir("routes");
        let handle = spawn_persistent(&dir, 0);
        let mut sender = handle.sender();
        let requester = handle.sender();
        let (tx, rx) = mpsc::channel();
        let sink = CompletionSink::new(tx, Arc::new(|| {}));
        let mut token = 0u64;
        // Waits for each sink answer before the blocking twin is sent, so
        // both see the same engine state and an empty queue behind them.
        let mut via_sink = |request: Request| {
            token += 1;
            requester
                .try_request(request, token, &sink, SpanCtx::default())
                .unwrap();
            let completion = rx.recv().unwrap();
            assert_eq!(completion.token, token);
            completion.payload
        };
        for chunk in figure1_actions().chunks(3) {
            sender.ingest(chunk.to_vec()).unwrap();
            let CompletionPayload::Solution(solution) = via_sink(Request::Query) else {
                panic!("query answered with another payload");
            };
            assert_eq!(solution, sender.query().unwrap());
            let CompletionPayload::Stats(stats) = via_sink(Request::Stats) else {
                panic!("stats answered with another payload");
            };
            assert_eq!(stats, sender.stats().unwrap());
            let CompletionPayload::Snapshot(info) = via_sink(Request::Snapshot) else {
                panic!("snapshot answered with another payload");
            };
            assert_eq!(info.unwrap(), sender.snapshot().unwrap());
        }
        assert_eq!(sender.stats().unwrap().actions, 10);
        drop((sender, requester));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sample rate 1 + slow threshold 0: the engine lane carries stage
    /// spans for the traced ingest and every request is promoted to the
    /// slow-op log with a stage breakdown summing within its total.
    #[cfg(feature = "trace")]
    #[test]
    fn traced_pipeline_records_stage_spans_and_slow_ops() {
        use rtim_stream::trace::TraceStage;
        let handle = EngineHandle::spawn(
            SimConfig::new(2, 0.3, 8, 2),
            FrameworkKind::Ic,
            HandleOptions::default()
                .with_capacity(8)
                .with_tracing(TraceConfig::sampled(1, 0)),
        );
        let rec = handle.trace_recorder().expect("tracing enabled");
        let mut sender = handle.sender();
        let actions = figure1_actions();
        let span = SpanCtx {
            conn: 7,
            corr: 42,
            kind: 0x01,
            sampled: true,
            start_nanos: rec.now_nanos(),
            parse_nanos: 5,
            enqueue_nanos: rec.now_nanos(),
        };
        sender.ingest_traced(actions[..4].to_vec(), span).unwrap();
        sender.ingest(actions[4..].to_vec()).unwrap();
        // Stats round-trips behind the batches, so afterwards both ingests
        // have been traced.
        let stats = sender.stats().unwrap();
        assert_eq!(stats.actions, 10);
        let dump = rec.dump(usize::MAX, false);
        let stages: std::collections::HashSet<u8> =
            dump.events.iter().map(|e| e.stage).collect();
        assert!(stages.contains(&TraceStage::Parse.code()));
        assert!(stages.contains(&TraceStage::QueueWait.code()));
        assert!(stages.contains(&TraceStage::Resolve.code()));
        assert!(stages.contains(&TraceStage::ShardFeed.code()));
        assert!(!dump.slow_ops.is_empty());
        for op in &dump.slow_ops {
            let sum: u64 = op.stages.iter().sum();
            assert!(sum <= op.total_nanos, "stage sum {sum} > {}", op.total_nanos);
        }
        let traced = dump
            .slow_ops
            .iter()
            .find(|o| o.conn == 7 && o.corr == 42)
            .expect("traced ingest promoted to the slow log");
        assert_eq!(traced.kind, 0x01);
        assert_eq!(traced.stages[TraceStage::Parse.code() as usize], 5);
        handle.shutdown();
    }

    /// Without `with_tracing` (or with the feature compiled out) no
    /// recorder exists — the disabled path stays allocation-free.
    #[test]
    fn tracing_disabled_means_no_recorder() {
        let handle = spawn(4, false);
        assert!(handle.trace_recorder().is_none());
        handle.shutdown();
    }

    #[test]
    fn dropping_the_handle_joins_cleanly() {
        let handle = spawn(4, false);
        let mut sender = handle.sender();
        sender.ingest(vec![Action::root(1u64, 1u32)]).unwrap();
        drop(handle); // drains + joins; no panic, no leak
        assert!(matches!(
            sender.ingest(vec![Action::root(2u64, 1u32)]),
            Err(IngestError::Closed) | Ok(())
        ));
    }
}

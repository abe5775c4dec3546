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
//!   them on a **bounded** command queue — when the queue is full,
//!   [`IngestSender::try_ingest`] hands the batch back instead of
//!   blocking, so callers can reply with explicit backpressure;
//! * a single engine thread owns the [`SimEngine`], dequeues commands in
//!   arrival order, and drains batches through
//!   [`SimEngine::ingest_batch_traced`] — the queue order *is* the stream
//!   order;
//! * the engine thread also owns the durable state (journal, snapshot
//!   writer, recovery), which lives in `durable.rs`.
//!
//! ## The reply path
//!
//! Nothing that answers a client waits on the engine thread unless it
//! must:
//!
//! * **Published answer.**  After recovery and after every ingest batch
//!   the engine thread computes the SIM answer once and publishes it next
//!   to the count of commands it covers.  A query whose caller owes no
//!   other reply is answered from that copy on the caller's thread when
//!   the count covers every command enqueued so far
//!   ([`IngestSender::published_answer`]); otherwise it is queued like
//!   any other command, and the engine answers it from the same copy.
//!   Either way the answer reflects every batch enqueued before the query
//!   — a producer that ingests then queries observes its own writes, and
//!   so does anyone who saw that ingest acknowledged.
//! * **Doorbell.**  The engine thread sleeps on a doorbell rather than in
//!   a channel receive.  An enqueue takes its queue position and counts as
//!   enqueued at once, but the engine is woken only when the returned
//!   [`Doorbell`] drops, so a front-end can write the batch's `ACK` first
//!   ([`IngestSender::try_ingest_traced`]).  Exactly one enqueue after the
//!   engine went to sleep holds a ringing doorbell; later enqueues find it
//!   already claimed, so no wake-up is lost and none is spent on an
//!   engine that is already running.
//! * **Engine exit.**  When the engine thread ends — drained, or by a
//!   panic — the queue closes: queued commands are dropped (their blocked
//!   callers get [`HandleClosed`]), producers blocked on a full queue
//!   return [`IngestError::Closed`], and the published answer is no longer
//!   served.
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
pub use crate::durable::{
    DurabilityState, FsyncPolicy, PersistOptions, SnapshotInfo, SnapshotRequestError, JOURNAL_FILE,
};
use crate::durable::{Persistence, SnapshotResult};
use crate::engine::{SimEngine, SlideReport};
use crate::framework::{FrameworkKind, Solution};
use crate::metrics::EngineMetrics;
pub use crate::snapshot::SNAPSHOT_FILE;
use crate::trace::{Clock, FlightRecorder, SpanCtx, TraceConfig, TraceWriter};
use fxhash::FxHashMap;
use rtim_stream::trace::TraceStage;
use rtim_stream::{Action, ActionId, SocialStream};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

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
    /// Nanoseconds spent answering queries, on whichever thread answered
    /// them (see the module docs on the published answer).
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
    /// Checkpoints moved between shards by the pool's count rebalancer
    /// after a remove (always 0 at pool width 1).
    pub shard_migrations: u64,
    /// Smallest per-shard feed-time EWMA, in nanoseconds (0 before the
    /// first feed; at width 1 the one shard's, equal to the maximum).
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
pub(crate) enum Reply<T> {
    /// A blocking caller parked on a one-shot channel.
    Channel(mpsc::Sender<T>),
    /// An event-driven caller: the answer goes through the sink, tagged
    /// with the caller's token.
    Sink { token: u64, sink: CompletionSink },
}

impl<T: Into<CompletionPayload>> Reply<T> {
    /// Delivers the answer.  A requester that went away is ignored.
    pub(crate) fn send(self, value: T) {
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
    /// An action batch from sender `source` (the first field), ids in the
    /// sender's space.
    Ingest(u64, Vec<Action>, SpanCtx),
    /// Answer the SIM query for the current window.
    Query(Reply<Solution>, SpanCtx),
    /// Report aggregate counters.
    Stats(Reply<EngineStats>, SpanCtx),
    /// Write a durable snapshot now (ordered like any other command, so it
    /// covers everything enqueued before it).
    Snapshot(Reply<SnapshotResult>, SpanCtx),
    /// Switch to draining: process what is queued, then exit.
    Shutdown,
}

/// The command queue and the published answer, behind one lock so a
/// reader compares the answer's coverage with the enqueue count in one
/// consistent view.
struct QueueState {
    commands: VecDeque<Command>,
    /// Commands ever enqueued / dequeued; their difference is the depth,
    /// which never exceeds the capacity.
    enqueued: u64,
    drained: u64,
    /// The engine thread is asleep on the doorbell; the next enqueue takes
    /// the duty of ringing it.
    idle: bool,
    /// Producers blocked on a full queue.
    blocked: usize,
    /// No more commands are accepted and no answer is served: the engine
    /// thread has exited (drained, or panicked).
    closed: bool,
    /// The SIM answer as of the first `answered` commands; `None` until
    /// recovery has finished.
    answer: Option<Arc<Solution>>,
    answered: u64,
}

/// Shared state between handle, senders and the engine thread: the
/// bounded queue with its doorbell, the metrics registry and the flight
/// recorder (when tracing).
struct Shared {
    state: Mutex<QueueState>,
    capacity: usize,
    /// The engine thread waits here while the queue is empty.
    bell: Condvar,
    /// Producers blocked on a full queue wait here for a free slot.
    room: Condvar,
    /// Next sender (source) id.
    next_source: AtomicU64,
    /// Nanoseconds spent answering queries, on either path.
    query_nanos: AtomicU64,
    metrics: Arc<EngineMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Nothing panics while holding the lock, so a poisoned state is
        // still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commands waiting in the queue right now.
    fn depth(&self) -> usize {
        self.lock().commands.len()
    }

    /// Engine thread: the next command and the commands still waiting
    /// behind it (0 = the pipeline kept up), sleeping on the doorbell while
    /// the queue is empty.  `None` once the queue is closed, or — when
    /// `draining` — empty, which closes it.
    fn next_command(&self, draining: bool) -> Option<(Command, usize)> {
        let mut state = self.lock();
        loop {
            if let Some(command) = state.commands.pop_front() {
                state.drained += 1;
                // Everything before this command is processed and covered
                // by the published answer.  Only an ingest changes the
                // answer, and the engine republishes it after the batch.
                if !matches!(command, Command::Ingest(..)) {
                    state.answered = state.drained;
                }
                if state.blocked > 0 {
                    self.room.notify_one();
                }
                return Some((command, state.commands.len()));
            }
            if draining || state.closed {
                state.closed = true;
                return None;
            }
            state.idle = true;
            state = self
                .bell
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Engine thread: publishes the answer covering every command dequeued
    /// so far.
    fn publish_answer(&self, answer: Arc<Solution>) {
        let mut state = self.lock();
        state.answered = state.drained;
        state.answer = Some(answer);
    }

    /// The published answer when it covers every command enqueued so far.
    fn published(&self) -> Result<Option<Solution>, HandleClosed> {
        let answer = {
            let state = self.lock();
            if state.closed {
                return Err(HandleClosed);
            }
            if state.answered != state.enqueued {
                return Ok(None);
            }
            state.answer.clone()
        };
        Ok(answer.map(|a| (*a).clone()))
    }

    /// Counts one answered query, whichever thread answered it.
    fn record_query(&self, nanos: u64) {
        self.query_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.metrics.record_query(nanos);
    }

    /// Engine thread, on exit (panic included): closes the queue, wakes
    /// blocked producers and drops the queued commands, so every caller
    /// waiting on one of them gets [`HandleClosed`].
    fn close(&self) {
        let dropped = {
            let mut state = self.lock();
            state.closed = true;
            std::mem::take(&mut state.commands)
        };
        self.room.notify_all();
        drop(dropped);
    }
}

/// Wakes the engine thread when dropped, if the enqueue that returned it
/// found the engine asleep (see the module docs).  Hold it across the
/// write of the request's acknowledgement; drop it right after.
#[must_use = "dropping the doorbell wakes the engine thread"]
pub struct Doorbell(Option<Arc<Shared>>);

impl Doorbell {
    /// Wakes the engine now (same as dropping the doorbell).
    pub fn ring(self) {}

    /// One doorbell holding the duty of both: it wakes the engine when
    /// dropped if either would have.
    pub fn join(mut self, mut other: Doorbell) -> Doorbell {
        Doorbell(self.0.take().or_else(|| other.0.take()))
    }
}

impl Drop for Doorbell {
    fn drop(&mut self) {
        if let Some(shared) = self.0.take() {
            shared.bell.notify_one();
        }
    }
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Doorbell").field(&self.0.is_some()).finish()
    }
}

/// Closes the queue when the engine thread ends, however it ends.
struct CloseOnExit(Arc<Shared>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The producer end of the engine queue, shared by [`EngineHandle`],
/// [`SenderSpawner`] and every [`IngestSender`]: every enqueue goes
/// through [`Queue::send`].
#[derive(Clone)]
struct Queue {
    shared: Arc<Shared>,
}

impl Queue {
    /// Enqueues `command`, blocking while the queue is full when `block`
    /// (a blocking send fails only as `Disconnected`).  The engine is woken
    /// when the returned doorbell drops.
    fn send(&self, command: Command, block: bool) -> Result<Doorbell, TrySendError<Command>> {
        let shared = &self.shared;
        let mut state = shared.lock();
        loop {
            if state.closed {
                return Err(TrySendError::Disconnected(command));
            }
            if state.commands.len() < shared.capacity {
                break;
            }
            if !block {
                return Err(TrySendError::Full(command));
            }
            state.blocked += 1;
            state = shared
                .room
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.blocked -= 1;
        }
        state.commands.push_back(command);
        state.enqueued += 1;
        let ring = std::mem::take(&mut state.idle);
        Ok(Doorbell(ring.then(|| Arc::clone(shared))))
    }

    /// Sends an untraced request and waits for the engine's reply.
    fn round_trip<T>(
        &self,
        request: impl FnOnce(Reply<T>, SpanCtx) -> Command,
    ) -> Result<T, HandleClosed> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.send(request(Reply::Channel(reply_tx), SpanCtx::default()), true)
            .map(Doorbell::ring)
            .map_err(|_| HandleClosed)?;
        reply_rx.recv().map_err(|_| HandleClosed)
    }

    /// The published answer when it covers everything enqueued (counted
    /// as an answered query), else `None`.
    fn published_answer(&self) -> Result<Option<Solution>, HandleClosed> {
        let started = Instant::now();
        let answer = self.shared.published()?;
        if answer.is_some() {
            self.shared
                .record_query(started.elapsed().as_nanos() as u64);
        }
        Ok(answer)
    }

    /// Answers the SIM query from the published answer when it covers
    /// everything enqueued, else through the queue.
    fn query(&self) -> Result<Solution, HandleClosed> {
        match self.published_answer()? {
            Some(solution) => Ok(solution),
            None => self.round_trip(Command::Query),
        }
    }
}

/// A per-producer ingest endpoint (one private id space each).
///
/// Obtained from [`EngineHandle::sender`]; not cloneable — each producer
/// (connection) gets its own sender so the engine can remap its ids
/// independently.
pub struct IngestSender {
    queue: Queue,
    source: u64,
    /// Largest id this sender has successfully enqueued.
    last_id: u64,
}

impl IngestSender {
    /// Validates the batch against this sender's id space.
    fn validate(&self, actions: &[Action]) -> Result<(), IngestError> {
        let mut last = ActionId(self.last_id);
        for a in actions {
            let id = a.id;
            if id <= last {
                return Err(IngestError::Invalid(format!(
                    "action ids must be strictly increasing per sender: {id} after {last}"
                )));
            }
            if let Some(p) = a.parent.filter(|&p| p >= id) {
                let msg = format!("action {id} replies to a non-earlier action {p}");
                return Err(IngestError::Invalid(msg));
            }
            last = id;
        }
        Ok(())
    }

    /// Validates, enqueues (blocking while full when `block`) and commits
    /// a batch.  An empty batch is a no-op.
    fn enqueue(
        &mut self,
        actions: Vec<Action>,
        span: SpanCtx,
        block: bool,
    ) -> Result<Doorbell, IngestError> {
        let Some(last) = actions.last().map(|a| a.id.0) else {
            return Ok(Doorbell(None));
        };
        self.validate(&actions)?;
        let command = Command::Ingest(self.source, actions, span);
        match self.queue.send(command, block) {
            Ok(bell) => {
                self.last_id = last;
                Ok(bell)
            }
            Err(TrySendError::Full(Command::Ingest(_, batch, _))) => Err(IngestError::Full(batch)),
            Err(TrySendError::Full(_)) => unreachable!("ingest command round-trips"),
            Err(TrySendError::Disconnected(_)) => Err(IngestError::Closed),
        }
    }

    /// Enqueues a batch without blocking.  On a full queue the batch is
    /// handed back in [`IngestError::Full`] so the caller can retry or
    /// signal backpressure.  An empty batch is a no-op.
    pub fn try_ingest(&mut self, actions: Vec<Action>) -> Result<(), IngestError> {
        self.enqueue(actions, SpanCtx::default(), false)
            .map(Doorbell::ring)
    }

    /// [`IngestSender::try_ingest`] with a trace span context (the
    /// front-end stamps socket-readable/parse/enqueue times so the engine
    /// thread can attribute queue wait and stage spans to the request),
    /// which leaves the engine asleep until the returned [`Doorbell`]
    /// drops.  The batch is queued and counted as enqueued on return, so a
    /// front-end can acknowledge it before the engine competes for the
    /// CPU.
    pub fn try_ingest_traced(
        &mut self,
        actions: Vec<Action>,
        span: SpanCtx,
    ) -> Result<Doorbell, IngestError> {
        self.enqueue(actions, span, false)
    }

    /// Enqueues a batch, blocking while the queue is full.
    pub fn ingest(&mut self, actions: Vec<Action>) -> Result<(), IngestError> {
        self.enqueue(actions, SpanCtx::default(), true)
            .map(Doorbell::ring)
    }

    /// [`IngestSender::ingest`] with a trace span context (see
    /// [`IngestSender::try_ingest_traced`]).
    pub fn ingest_traced(
        &mut self,
        actions: Vec<Action>,
        span: SpanCtx,
    ) -> Result<(), IngestError> {
        self.enqueue(actions, span, true).map(Doorbell::ring)
    }

    /// Answers the SIM query (ordered after everything this sender already
    /// enqueued; blocks while the queue is full).  Answered from the
    /// published answer without entering the queue when that covers every
    /// command enqueued so far.
    pub fn query(&self) -> Result<Solution, HandleClosed> {
        self.queue.query()
    }

    /// The published answer if it covers every command enqueued so far,
    /// else `Ok(None)`: the caller then queues the query
    /// ([`IngestSender::try_request`]).  A front-end may use it only for a
    /// requester that owes no earlier reply, so replies stay in order.
    /// A returned answer counts as one answered query.
    pub fn published_answer(&self) -> Result<Option<Solution>, HandleClosed> {
        self.queue.published_answer()
    }

    /// Reports aggregate pipeline counters.
    pub fn stats(&self) -> Result<EngineStats, HandleClosed> {
        self.queue.round_trip(Command::Stats)
    }

    /// Requests a durable snapshot covering everything this sender already
    /// enqueued (ordered through the same queue; blocks while it is full).
    pub fn snapshot(&self) -> Result<SnapshotInfo, SnapshotRequestError> {
        let closed = Err(SnapshotRequestError::Closed);
        self.queue.round_trip(Command::Snapshot).unwrap_or(closed)
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
            Request::Query => Command::Query(Reply::Sink { token, sink }, span),
            Request::Stats => Command::Stats(Reply::Sink { token, sink }, span),
            Request::Snapshot => Command::Snapshot(Reply::Sink { token, sink }, span),
        };
        match self.queue.send(command, false) {
            Ok(bell) => {
                bell.ring();
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(AsyncRequestError::Full),
            Err(TrySendError::Disconnected(_)) => Err(AsyncRequestError::Closed),
        }
    }

    /// Commands waiting in the queue right now (approximate).
    pub fn queue_depth(&self) -> usize {
        self.queue.shared.depth()
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
    queue: Queue,
}

impl SenderSpawner {
    /// Creates a new producer endpoint with its own private id space.
    pub fn sender(&self) -> IngestSender {
        IngestSender {
            queue: self.queue.clone(),
            source: self.queue.shared.next_source.fetch_add(1, Ordering::AcqRel),
            last_id: 0,
        }
    }
}

impl std::fmt::Debug for SenderSpawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderSpawner").finish()
    }
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
    queue: Queue,
    thread: Option<JoinHandle<EngineReport>>,
    capacity: usize,
}

impl EngineHandle {
    /// Spawns the engine thread and returns the pipeline handle.
    pub fn spawn(config: SimConfig, kind: FrameworkKind, options: HandleOptions) -> Self {
        let capacity = options.capacity.max(1);
        // With tracing disabled (by config or by compiling out the `trace`
        // feature) no recorder exists and every instrumentation site in
        // the engine loop stays on its `None` arm — the zero-allocation
        // no-op path.
        let trace = options.trace;
        let recorder = trace.is_enabled().then(|| FlightRecorder::new(trace));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                commands: VecDeque::with_capacity(capacity),
                enqueued: 0,
                drained: 0,
                idle: false,
                blocked: 0,
                closed: false,
                answer: None,
                answered: 0,
            }),
            capacity,
            bell: Condvar::new(),
            room: Condvar::new(),
            next_source: AtomicU64::new(0),
            query_nanos: AtomicU64::new(0),
            metrics: Arc::default(),
            recorder,
        });
        let engine_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("rtim-engine".into())
            .spawn(move || {
                let _close = CloseOnExit(Arc::clone(&engine_shared));
                engine_loop(config, kind, options, &engine_shared)
            })
            .expect("spawn engine thread");
        EngineHandle {
            queue: Queue { shared },
            thread: Some(thread),
            capacity,
        }
    }

    /// The pipeline's metrics registry: sliding latency histograms fed by
    /// the engine thread plus front-end counters.  Reading it (e.g. to
    /// serve `/metrics`) never enqueues an engine command, so scrapes
    /// cannot perturb the arrival order.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.queue.shared.metrics)
    }

    /// The pipeline's flight recorder, when tracing is enabled.  Dumping
    /// it (the `TRACE` command, `GET /trace`) reads the rings passively and
    /// never enqueues an engine command — the same scrape-determinism
    /// argument as [`EngineHandle::metrics`].
    pub fn trace_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.queue.shared.recorder.clone()
    }

    /// Creates a new producer endpoint with its own private id space.
    pub fn sender(&self) -> IngestSender {
        self.sender_spawner().sender()
    }

    /// A cloneable factory that can mint senders on other threads.
    pub fn sender_spawner(&self) -> SenderSpawner {
        SenderSpawner {
            queue: self.queue.clone(),
        }
    }

    /// The bounded queue capacity (commands).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Commands waiting in the queue right now (approximate).
    pub fn queue_depth(&self) -> usize {
        self.queue.shared.depth()
    }

    /// Answers the SIM query for the current window (from the published
    /// answer when it covers every command enqueued so far).
    pub fn query(&self) -> Result<Solution, HandleClosed> {
        self.queue.query()
    }

    /// Reports aggregate pipeline counters.
    pub fn stats(&self) -> Result<EngineStats, HandleClosed> {
        self.queue.round_trip(Command::Stats)
    }

    /// Requests a durable snapshot of the current engine state.
    pub fn snapshot(&self) -> Result<SnapshotInfo, SnapshotRequestError> {
        let closed = Err(SnapshotRequestError::Closed);
        self.queue.round_trip(Command::Snapshot).unwrap_or(closed)
    }

    /// Initiates a drain and waits for the engine thread to finish.
    ///
    /// The engine processes every command already enqueued (including
    /// batches that racing senders managed to enqueue before the drain
    /// caught up), then exits; later sends fail with
    /// [`IngestError::Closed`] / [`HandleClosed`].
    ///
    /// # Panics
    /// Panics if the engine thread panicked.
    pub fn shutdown(mut self) -> EngineReport {
        let joined = self.shutdown_inner().expect("engine thread already joined");
        joined.expect("engine thread panicked")
    }

    fn shutdown_inner(&mut self) -> Option<std::thread::Result<EngineReport>> {
        let thread = self.thread.take()?;
        // A closed queue means the engine already exited.
        let _ = self.queue.send(Command::Shutdown, true);
        Some(thread.join())
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        // A handle dropped without `shutdown()` still drains and joins, so
        // no engine thread is ever leaked mid-batch; an engine panic was
        // already reported on its own thread.
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

/// Per-sender id rebasing, held by the engine thread (see the module
/// docs).
struct Rebaser {
    /// The next global id to assign.
    next_id: u64,
    /// Per sender: sender-space id → assigned global id.
    sources: FxHashMap<u64, FxHashMap<u64, u64>>,
    /// [`HandleOptions::remap_horizon`].
    horizon: Option<u64>,
    /// `next_id` at the last prune sweep.
    last_prune: u64,
}

impl Rebaser {
    /// Rebases one batch of sender `source` onto the global arrival order,
    /// counting replies to unknown parents (degraded to roots) in
    /// `orphaned`.
    fn rebase(&mut self, source: u64, actions: &[Action], orphaned: &mut u64) -> Vec<Action> {
        let remap = self.sources.entry(source).or_default();
        let mut rebased = Vec::with_capacity(actions.len());
        for a in actions {
            let assigned = self.next_id;
            self.next_id += 1;
            let parent = a.parent.and_then(|p| remap.get(&p.0).copied());
            if a.parent.is_some() && parent.is_none() {
                *orphaned += 1;
            }
            remap.insert(a.id.0, assigned);
            rebased.push(Action {
                id: ActionId(assigned),
                user: a.user,
                parent: parent.map(ActionId),
            });
        }
        if let Some(h) = self.horizon {
            // Amortized prune, mirroring PropagationIndex: sweep only once
            // the assigned range doubles the horizon.
            if self.next_id - self.last_prune > 2 * h {
                let cutoff = self.next_id.saturating_sub(h);
                self.sources.retain(|_, remap| {
                    remap.retain(|_, &mut assigned| assigned >= cutoff);
                    !remap.is_empty()
                });
                self.last_prune = self.next_id;
            }
        }
        rebased
    }
}

/// The engine thread: dequeues commands in arrival order and owns the
/// [`SimEngine`] exclusively (the one-writer invariant).
fn engine_loop(
    config: SimConfig,
    kind: FrameworkKind,
    options: HandleOptions,
    shared: &Shared,
) -> EngineReport {
    let (metrics, recorder) = (&shared.metrics, &shared.recorder);
    let persistent = options.persist.is_some();
    let (mut engine, watermark, mut persistence) =
        Persistence::open(config, kind, options.persist.clone());
    // Queries are served only from here on: never a pre-recovery answer.
    let mut answer = Arc::new(engine.query());
    shared.publish_answer(Arc::clone(&answer));
    // Continuity after recovery: global ids continue past the journal,
    // actions/slides count everything the engine state covers (batches
    // count from this process start).
    let mut stats = EngineStats {
        actions: watermark,
        slides: engine.slides_processed(),
        ..EngineStats::default()
    };
    let mut rebaser = Rebaser {
        next_id: watermark + 1,
        sources: FxHashMap::default(),
        horizon: options.remap_horizon,
        last_prune: 0,
    };
    let mut journal: Vec<Action> = Vec::new();
    let mut recent: VecDeque<SlideReport> = VecDeque::with_capacity(RECENT_SLIDES);
    let mut draining = false;
    let clock = recorder.as_ref().map_or_else(Clock::start, |r| r.clock());
    // The engine thread's single ring lane; `None` folds every
    // instrumentation site below to nothing (tracing disabled).
    let mut tracer: Option<TraceWriter> = recorder.as_ref().map(|r| r.writer());
    // Rebalance lifecycle events are derived by diffing the pool's
    // cumulative move counter across batches.
    let mut seen_migrations: u64 = engine.pool_stats().migrations;

    // A drain ends at the first empty poll.
    while let Some((command, observed)) = shared.next_command(draining) {
        stats.max_queue_depth = stats.max_queue_depth.max(observed as u64);
        persistence.drain_completions();
        let t_dequeue = clock.now_nanos();

        match command {
            Command::Ingest(source, actions, span) => {
                let rebased = rebaser.rebase(source, &actions, &mut stats.orphaned_replies);
                // Journal before processing: the disk always covers at
                // least what the engine state reflects, so a snapshot's
                // watermark can never run ahead of the journal.
                let t_journal = clock.now_nanos();
                let rearmed = persistence.journal(&rebased);
                let t_journaled = clock.now_nanos();
                let (reports, breakdown) = engine.ingest_batch_traced(&rebased);
                // The answer is computed once per batch and published for
                // every query until the next one.
                let t_fed = clock.now_nanos();
                answer = Arc::new(engine.query());
                shared.publish_answer(Arc::clone(&answer));
                let answer_nanos = clock.now_nanos() - t_fed;
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
                let t_ingested = clock.now_nanos();
                persistence.ingested(&engine, rearmed);
                if let Some(t) = &mut tracer {
                    // Without persistence there is no journal or snapshot
                    // stage to attribute.
                    let (journal_nanos, snapshot_nanos) = if persistent {
                        (t_journaled - t_journal, clock.now_nanos() - t_ingested)
                    } else {
                        (0, 0)
                    };
                    let shards = engine.shard_feed_reports().iter().enumerate();
                    for (i, r) in shards.filter(|(_, r)| span.sampled && r.nanos > 0) {
                        let stage = TraceStage::ShardSpan.code();
                        t.span(stage, span.conn, span.corr, r.nanos, i as u16);
                    }
                    let stages = [
                        (TraceStage::JournalAppend, journal_nanos),
                        (TraceStage::Resolve, breakdown.resolve_nanos),
                        (TraceStage::ShardFeed, breakdown.feed_nanos),
                        (TraceStage::OracleQuery, answer_nanos),
                        (TraceStage::SnapshotDispatch, snapshot_nanos),
                    ];
                    t.request(span, t_dequeue, &stages);
                }
                // Refreshes the scrape-facing gauges after every batch, so
                // `/metrics` reflects the pipeline without ever sending a
                // command through the queue.
                publish(&mut stats, &engine, &persistence, shared);
            }
            Command::Query(reply, span) => {
                let solution = (*answer).clone();
                let nanos = clock.now_nanos() - t_dequeue;
                shared.record_query(nanos);
                if let Some(t) = &mut tracer {
                    t.request(span, t_dequeue, &[(TraceStage::OracleQuery, nanos)]);
                }
                reply.send(solution);
            }
            Command::Stats(reply, span) => {
                publish(&mut stats, &engine, &persistence, shared);
                if let Some(t) = &mut tracer {
                    t.request(span, t_dequeue, &[]);
                }
                reply.send(stats);
            }
            Command::Snapshot(reply, span) => {
                persistence.dispatch_snapshot(&engine, Some(reply));
                if let Some(t) = &mut tracer {
                    if persistent {
                        let nanos = clock.now_nanos() - t_dequeue;
                        t.lifecycle(TraceStage::SnapshotDispatch, nanos, 0);
                    }
                    t.request(span, t_dequeue, &[]);
                }
            }
            Command::Shutdown => draining = true,
        }

        // Lifecycle events: always recorded while tracing is enabled,
        // never sampled out.
        let events = persistence.take_events();
        if let Some(t) = &mut tracer {
            for (stage, aux) in events {
                t.lifecycle(stage, 0, aux);
            }
            if stats.shard_migrations > seen_migrations {
                seen_migrations = stats.shard_migrations;
                t.lifecycle(TraceStage::Lifecycle, 0, 1);
            }
        }
    }

    // Final fsync + writer-thread join happen before the stats freeze, so
    // the report reflects the closing durability state (a failed final
    // sync shows up as degraded).
    persistence.shutdown();
    publish(&mut stats, &engine, &persistence, shared);
    EngineReport {
        stats,
        final_solution: (*answer).clone(),
        // Rebased ids are strictly increasing and parents resolve to
        // earlier assigned ids, so the journal is valid by construction.
        journal: options
            .journal
            .then(|| SocialStream::new_unchecked(journal)),
        recent_slides: recent.into(),
        durability: persistence.state(),
    }
}

/// Publishes the point-in-time stats: fills the gauges read at this
/// instant and stores the copy every STATS answer and `/metrics` engine
/// gauge reads.
fn publish(stats: &mut EngineStats, engine: &SimEngine, durable: &Persistence, shared: &Shared) {
    stats.query_nanos = shared.query_nanos.load(Ordering::Relaxed);
    stats.checkpoints = engine.checkpoint_count() as u64;
    stats.oracle_updates = engine.oracle_updates();
    stats.users = engine.interner().len() as u64;
    stats.queue_depth = shared.depth() as u64;
    let pool = engine.pool_stats();
    stats.shard_migrations = pool.migrations;
    stats.shard_ewma_min_nanos = pool.ewma_min_nanos;
    stats.shard_ewma_max_nanos = pool.ewma_max_nanos;
    durable.fill_stats(stats);
    let metrics = &shared.metrics;
    metrics.observe_stats(stats);
    metrics.observe_arena(pool.arena_takes, pool.arena_hits);
    let index = engine.index();
    metrics.observe_propagation(index.retained() as u64, index.heap_bytes() as u64);
    if let Some(rec) = &shared.recorder {
        metrics.observe_trace(rec.events_total(), rec.slow_total());
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
            report
                .recent_slides
                .iter()
                .map(|r| r.actions)
                .sum::<usize>(),
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
            sender
                .ingest(vec![Action::root(t, (t % 5) as u32)])
                .unwrap();
        }
        // A reply to id 1, long outside the horizon of 10.
        sender
            .ingest(vec![Action::reply(41u64, 9u32, 1u64)])
            .unwrap();
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
                sender
                    .ingest(vec![Action::root(t, (t % 5) as u32)])
                    .unwrap();
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
        let stages: std::collections::HashSet<u8> = dump.events.iter().map(|e| e.stage).collect();
        assert!(stages.contains(&TraceStage::Parse.code()));
        assert!(stages.contains(&TraceStage::QueueWait.code()));
        assert!(stages.contains(&TraceStage::Resolve.code()));
        assert!(stages.contains(&TraceStage::ShardFeed.code()));
        assert!(!dump.slow_ops.is_empty());
        for op in &dump.slow_ops {
            let sum: u64 = op.stages.iter().sum();
            assert!(
                sum <= op.total_nanos,
                "stage sum {sum} > {}",
                op.total_nanos
            );
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

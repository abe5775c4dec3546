//! The server's front-end: a small pool of event-loop threads driving
//! every connection through non-blocking sockets and [`crate::poll`], so
//! connection count never dictates thread count.
//!
//! ```text
//!  client ─┐                       ┌─ poll ── loop thread 0 (+ listener) ─┐
//!  client ─┼─ non-blocking sockets ┤                                      ├─ bounded queue ─ engine thread
//!  client ─┘                       └─ poll ── loop thread 1 ──────────────┘
//!            completions (self-pipe wakeup) ◄──────────────────────────────┘
//!            published answer (read inline) ◄──────────────────────────────┘
//! ```
//!
//! Each connection lives on exactly one loop thread as an explicit state
//! machine over two buffers: bytes from `read(2)` land in a per-connection
//! read buffer and are parsed in place ([`parse_frame`] borrows payloads
//! straight out of it — an `INGEST` batch is decoded from the socket bytes
//! with no intermediate payload copy), and replies are appended to a
//! per-connection outbound buffer that drains opportunistically, with
//! `POLLOUT` interest only while bytes remain.  Requests that need the
//! engine travel the same bounded queue as ever, and the loop keeps the
//! engine thread off the reply path wherever the ordering allows:
//!
//! * an `INGEST` takes its queue position, its `ACK` is written to the
//!   socket, and only then is the engine woken (the enqueue's
//!   [`Doorbell`] is held to the end of the read pass);
//! * a `QUERY` on a connection that owes no other reply is answered
//!   inline from the engine's published answer when that covers every
//!   command enqueued so far ([`IngestSender::published_answer`]);
//! * everything else — and a `QUERY` the published answer does not yet
//!   cover — comes back on a per-thread completion channel whose sender
//!   wakes the loop through a self-pipe registered in the poll set,
//!   carrying a token that routes the reply to its connection and
//!   correlation id.
//!
//! **Backpressure** never answers `BUSY` (the protocol reserves that
//! frame, but this server never sends it).  A pipelined client may have
//! more ingests in flight behind the full one, and a `BUSY`'d batch
//! retried after a later batch was accepted would break the sender's
//! strictly-increasing id invariant.  Instead the loop *parks* the request
//! (at most one per connection), stops reading that connection — TCP flow
//! control propagates the stall to the sender — and retries on a short
//! poll timeout until the queue drains.  Replies therefore stay
//! per-connection FIFO in engine completion order.
//!
//! **Shutdown** needs no loopback-connect or socket-shutdown tricks: the
//! initiator (owner or a `SHUTDOWN` frame) flips the flag and writes every
//! loop's self-pipe; each loop stops reading, fails parked requests,
//! flushes outbound buffers, waits for in-flight completions (the engine
//! stays up until the loops exit), and closes — with a deadline guard so a
//! peer that never drains its socket cannot stall the server.

use crate::poll::{poll, PollFd, WakePipe, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{
    encode_frame_into, parse_error_consumed, parse_frame, Frame, PROTOCOL_VERSION,
};
use rtim_core::{
    AsyncRequestError, Completion, CompletionPayload, CompletionSink, Doorbell, EngineMetrics,
    FlightRecorder, IngestError, IngestSender, Request, SenderSpawner, SpanCtx, TraceWriter,
};
use rtim_stream::trace::{TraceDump, TraceStage};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes read from a socket per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes read from one connection per readiness event before yielding to
/// the others (level-triggered poll re-fires if more is pending).
const READ_BUDGET: usize = 256 * 1024;
/// Outbound bytes above which the loop stops reading a connection until
/// the peer drains its replies.
const OUT_PAUSE: usize = 4 * 1024 * 1024;
/// Idle buffer capacity above which a drained buffer is shrunk, so a
/// one-off giant frame does not pin its memory for the connection's life.
const SHRINK_ABOVE: usize = 1024 * 1024;
const SHRINK_TO: usize = 64 * 1024;
/// Poll timeout while a parked request waits for queue space.
const PARK_RETRY_MS: i32 = 1;
/// How long shutdown waits for peers to drain their replies before
/// force-closing them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Cap on events per `TRACE` reply, keeping the dump frame far below
/// [`crate::protocol::MAX_FRAME_LEN`] no matter what the client asks for.
pub(crate) const TRACE_DUMP_MAX_EVENTS: u32 = 1 << 19;

/// State shared by every loop thread and the owner.
struct EvShared {
    shutting_down: AtomicBool,
    /// One self-pipe per loop thread — the only cross-thread wake channel.
    wakes: Vec<Arc<WakePipe>>,
    /// Handoff queues for connections accepted on thread 0 but assigned
    /// elsewhere (round-robin).
    injects: Vec<Mutex<Vec<(TcpStream, IngestSender)>>>,
    next_conn_id: AtomicU64,
    /// Connection-churn and backpressure counters for `/metrics`.
    metrics: Arc<EngineMetrics>,
    /// The engine's flight recorder (when tracing is enabled): each loop
    /// thread registers one writer lane for its `reply_drain` spans, and
    /// `TRACE` frames are answered from it inline — purely passively.
    recorder: Option<Arc<FlightRecorder>>,
}

/// The running event-loop front-end.
pub(crate) struct EventLoopRuntime {
    threads: Vec<JoinHandle<()>>,
    shared: Arc<EvShared>,
}

impl EventLoopRuntime {
    /// Spawns `threads` loop threads over an already-bound listener
    /// (thread 0 owns it and distributes accepted connections).
    pub(crate) fn start(
        listener: TcpListener,
        spawner: SenderSpawner,
        threads: usize,
        metrics: Arc<EngineMetrics>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> io::Result<EventLoopRuntime> {
        let threads = threads.max(1);
        listener.set_nonblocking(true)?;
        let mut wakes = Vec::with_capacity(threads);
        let mut injects = Vec::with_capacity(threads);
        for _ in 0..threads {
            wakes.push(Arc::new(WakePipe::new()?));
            injects.push(Mutex::new(Vec::new()));
        }
        let shared = Arc::new(EvShared {
            shutting_down: AtomicBool::new(false),
            wakes,
            injects,
            next_conn_id: AtomicU64::new(0),
            metrics,
            recorder,
        });
        let mut handles = Vec::with_capacity(threads);
        for index in 0..threads {
            let shared = Arc::clone(&shared);
            let listener = (index == 0).then(|| listener.try_clone()).transpose()?;
            let spawner = spawner.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rtim-loop-{index}"))
                    .spawn(move || LoopThread::new(index, shared, listener, spawner).run())
                    .expect("spawn event-loop thread"),
            );
        }
        drop(listener);
        Ok(EventLoopRuntime {
            threads: handles,
            shared,
        })
    }

    /// Stops the front-end: flags shutdown (when initiating), wakes every
    /// loop, and joins them.  The engine queue is still live — the caller
    /// drains it afterwards.
    pub(crate) fn stop(self, initiate: bool) {
        if initiate {
            self.shared.shutting_down.store(true, Ordering::Release);
        }
        // Always wake: on `wait()` the flag was set by the loop that saw
        // the SHUTDOWN frame, which already woke its peers, but a second
        // byte in the pipe is harmless and closes any race.
        for wake in &self.shared.wakes {
            wake.wake();
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// A request that could not be submitted to the full engine queue and
/// waits on its connection for a retry (reads stay paused meanwhile).
enum Parked {
    Ingest {
        actions: Vec<rtim_stream::Action>,
        corr: Option<u32>,
        span: SpanCtx,
    },
    Request {
        request: Request,
        corr: Option<u32>,
        span: SpanCtx,
    },
}

/// Routing entry for an in-flight engine completion.
struct PendingReply {
    slot: usize,
    conn_id: u64,
    corr: Option<u32>,
    span: SpanCtx,
}

/// A pending `reply_drain` span: the reply for a sampled request ends at
/// absolute outbound offset `end`; when the cumulative flushed byte count
/// passes it, the span from `t_pushed` to now is recorded.
struct DrainMark {
    end: u64,
    conn: u64,
    corr: u32,
    t_pushed: u64,
}

/// One connection's state machine.
struct Conn {
    id: u64,
    stream: TcpStream,
    sender: IngestSender,
    /// Unparsed inbound bytes (compacted after each parse pass).
    rbuf: Vec<u8>,
    /// Encoded replies not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    parked: Option<Parked>,
    /// Completions still owed to this connection.
    pending: usize,
    /// No more reads; close once `out` is flushed and `pending` is 0.
    closing: bool,
    /// Request frames seen (drives the 1-in-N trace sample).
    trace_seq: u64,
    /// Recorder timestamp of the current read pass (0 = none yet): the
    /// end-to-end span of frames parsed from this pass starts here.
    t_read: u64,
    /// Cumulative bytes ever appended to `out` / flushed to the socket
    /// (monotonic across `out` resets), compared by [`DrainMark::end`].
    out_total: u64,
    flushed_total: u64,
    /// Outstanding `reply_drain` marks, FIFO by outbound offset.  Empty —
    /// and never allocated — unless a sampled request's reply is queued.
    drain_marks: VecDeque<DrainMark>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Whether the loop should read (and parse) this connection now.
    fn wants_read(&self, shutting: bool) -> bool {
        !self.closing
            && !shutting
            && self.parked.is_none()
            && self.out.len() - self.out_pos < OUT_PAUSE
    }

    /// Nothing left to deliver: safe to close once `closing` (or
    /// shutdown) says so.
    fn drained(&self) -> bool {
        self.flushed() && self.pending == 0 && self.parked.is_none()
    }
}

/// Appends one encoded reply to the connection's outbound buffer.
fn push_reply(conn: &mut Conn, frame: &Frame) {
    let before = conn.out.len();
    encode_frame_into(frame, &mut conn.out);
    conn.out_total += (conn.out.len() - before) as u64;
}

/// Writes as much outbound as the socket accepts.  `Err` means the
/// transport is gone.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                conn.flushed_total += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.out.capacity() > SHRINK_ABOVE {
        conn.out.shrink_to(SHRINK_TO);
    }
    Ok(())
}

/// What the poll set's non-wake entries point at.
#[derive(Clone, Copy)]
enum Slot {
    Listener,
    Conn(usize),
}

struct LoopThread {
    index: usize,
    shared: Arc<EvShared>,
    wake: Arc<WakePipe>,
    listener: Option<TcpListener>,
    spawner: SenderSpawner,
    /// Round-robin assignment counter for accepted connections.
    rr: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    completions: mpsc::Receiver<Completion>,
    sink: CompletionSink,
    pending: HashMap<u64, PendingReply>,
    next_token: u64,
    /// This thread's recorder lane (tracing enabled only): stamps span
    /// contexts on submitted commands and records `reply_drain` spans.
    tracer: Option<TraceWriter>,
    /// 1-in-N request sample rate (0 when tracing is off).
    sample: u64,
    /// Wakes the engine for the batches enqueued in the current read pass,
    /// once their `ACK`s are written.
    bell: Option<Doorbell>,
}

impl LoopThread {
    fn new(
        index: usize,
        shared: Arc<EvShared>,
        listener: Option<TcpListener>,
        spawner: SenderSpawner,
    ) -> LoopThread {
        let (tx, rx) = mpsc::channel();
        let waker = Arc::clone(&shared.wakes[index]);
        let sink = CompletionSink::new(tx, Arc::new(move || waker.wake()));
        let tracer = shared.recorder.as_ref().map(|r| r.writer());
        let sample = shared
            .recorder
            .as_ref()
            .map_or(0, |r| u64::from(r.config().sample));
        LoopThread {
            index,
            wake: Arc::clone(&shared.wakes[index]),
            shared,
            listener,
            spawner,
            rr: 0,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            completions: rx,
            sink,
            pending: HashMap::new(),
            next_token: 0,
            tracer,
            sample,
            bell: None,
        }
    }

    fn shutting(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            let shutting = self.shutting();
            if shutting && shutdown_since.is_none() {
                shutdown_since = Some(Instant::now());
                self.begin_shutdown();
            }
            self.drain_injected(shutting);
            self.drain_completions();
            self.retry_parked(shutting);
            let deadline_passed =
                shutdown_since.is_some_and(|since| since.elapsed() > DRAIN_DEADLINE);
            self.sweep(shutting, deadline_passed);
            if shutting && self.live == 0 {
                return;
            }

            fds.clear();
            slots.clear();
            fds.push(PollFd::new(self.wake.fd(), POLLIN));
            slots.push(Slot::Listener); // placeholder, index 0 is special-cased
            if let Some(listener) = &self.listener {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                slots.push(Slot::Listener);
            }
            let mut any_parked = false;
            for (i, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                any_parked |= conn.parked.is_some();
                let mut events = 0i16;
                if conn.wants_read(shutting) {
                    events |= POLLIN;
                }
                if !conn.flushed() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                slots.push(Slot::Conn(i));
            }
            // Never sleep on a batch the engine was not woken for.
            drop(self.bell.take());
            let timeout = if any_parked {
                PARK_RETRY_MS
            } else if shutting {
                20
            } else {
                -1
            };
            if poll(&mut fds, timeout).is_err() {
                // A poll failure is a bookkeeping bug (EBADF-class); take
                // the whole server down cleanly rather than spin on it.
                self.shared.shutting_down.store(true, Ordering::Release);
                for wake in &self.shared.wakes {
                    wake.wake();
                }
                continue;
            }
            if fds[0].readable() {
                self.wake.drain();
            }
            for (fd, slot) in fds.iter().zip(&slots).skip(1) {
                let revents = fd.revents();
                if revents == 0 {
                    continue;
                }
                match *slot {
                    Slot::Listener => self.accept_new(),
                    Slot::Conn(i) => self.dispatch(i, revents),
                }
            }
        }
    }

    /// Handles one connection's readiness events.
    fn dispatch(&mut self, i: usize, revents: i16) {
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        if revents & POLLNVAL != 0 {
            self.close(i);
            return;
        }
        if revents & POLLOUT != 0 {
            if flush(conn).is_err() {
                self.close(i);
                return;
            }
            self.note_flushed(i);
        }
        let shutting = self.shutting();
        if self.conns[i]
            .as_ref()
            .is_some_and(|c| c.wants_read(shutting))
        {
            self.readable(i, shutting);
        } else if revents & (crate::poll::POLLHUP | crate::poll::POLLERR) != 0 {
            // Peer errored or vanished while we were not reading (parked,
            // throttled, closing, or shutting down): nothing more can be
            // delivered either way.
            self.close(i);
        }
    }

    /// Reads and parses as much as the budget allows, then writes the
    /// replies and wakes the engine for the batches just enqueued.
    fn readable(&mut self, i: usize, shutting: bool) {
        self.read_pass(i, shutting);
        self.flush_and_ring(i);
    }

    /// Writes connection `i`'s pending replies (the `ACK`s of this pass
    /// among them), then rings the held doorbell: the engine competes for
    /// the CPU only once the acknowledgements are on the wire.  A failed
    /// write is left for the sweep to close.
    fn flush_and_ring(&mut self, i: usize) {
        let Some(bell) = self.bell.take() else { return };
        if let Some(conn) = self.conns[i].as_mut() {
            let _ = flush(conn);
            self.note_flushed(i);
        }
        bell.ring();
    }

    /// Reads and parses as much as the budget allows.
    fn read_pass(&mut self, i: usize, shutting: bool) {
        if let (Some(tracer), Some(conn)) = (&self.tracer, self.conns[i].as_mut()) {
            // Frames parsed out of this pass measure their end-to-end
            // span (and parse stage) from the readiness event.
            conn.t_read = tracer.now_nanos();
        }
        let mut taken = 0usize;
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            if !conn.wants_read(shutting) {
                break;
            }
            let old = conn.rbuf.len();
            conn.rbuf.resize(old + READ_CHUNK, 0);
            match conn.stream.read(&mut conn.rbuf[old..]) {
                Ok(0) => {
                    conn.rbuf.truncate(old);
                    // Clean EOF: whatever parsed before this is served;
                    // replies still owed are delivered, then close.
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.truncate(old + n);
                    taken += n;
                    if !self.parse(i) {
                        self.close(i);
                        return;
                    }
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.rbuf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.rbuf.truncate(old);
                }
                Err(_) => {
                    conn.rbuf.truncate(old);
                    self.close(i);
                    return;
                }
            }
        }
    }

    /// Parses every complete frame in the read buffer (stopping if a
    /// request parks).  Returns `false` when the connection must close
    /// immediately.
    fn parse(&mut self, i: usize) -> bool {
        let mut pos = 0usize;
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return true;
            };
            if conn.parked.is_some() || conn.closing {
                break;
            }
            match parse_frame(&conn.rbuf[pos..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    pos += used;
                    self.handle_frame(i, frame);
                }
                Err(e) => match parse_error_consumed(&conn.rbuf[pos..], &e) {
                    Some(used) => {
                        // The bad frame was well-delimited; report it and
                        // stay in sync.
                        pos += used;
                        push_reply(
                            conn,
                            &Frame::Error {
                                message: e.to_string(),
                                corr: None,
                            },
                        );
                    }
                    None => {
                        // Oversized prefix: the stream cannot be
                        // resynchronized — report, drop the garbage, and
                        // close once the error is flushed.
                        push_reply(
                            conn,
                            &Frame::Error {
                                message: e.to_string(),
                                corr: None,
                            },
                        );
                        conn.rbuf.clear();
                        conn.closing = true;
                        return true;
                    }
                },
            }
        }
        let Some(conn) = self.conns[i].as_mut() else {
            return true;
        };
        if pos > 0 {
            let len = conn.rbuf.len();
            conn.rbuf.copy_within(pos.., 0);
            conn.rbuf.truncate(len - pos);
        }
        if conn.rbuf.is_empty() && conn.rbuf.capacity() > SHRINK_ABOVE {
            conn.rbuf.shrink_to(SHRINK_TO);
        }
        true
    }

    /// Stamps the span context for one request frame: connection id,
    /// correlation, the 1-in-N sample decision, and the readable→parsed
    /// timing.  All-default (never sampled, never slow-attributed) when
    /// tracing is off.
    fn make_span(&mut self, i: usize, kind: u8, corr: Option<u32>) -> SpanCtx {
        let Some(tracer) = &self.tracer else {
            return SpanCtx::default();
        };
        let Some(conn) = self.conns[i].as_mut() else {
            return SpanCtx::default();
        };
        let seq = conn.trace_seq;
        conn.trace_seq += 1;
        let now = tracer.now_nanos();
        let start = if conn.t_read > 0 { conn.t_read } else { now };
        SpanCtx {
            conn: conn.id,
            corr: corr.unwrap_or(u32::MAX),
            kind,
            sampled: self.sample > 0 && seq % self.sample == 0,
            start_nanos: start,
            parse_nanos: now.saturating_sub(start),
            enqueue_nanos: 0,
        }
    }

    /// Executes one parsed frame against the engine pipeline.
    fn handle_frame(&mut self, i: usize, frame: Frame) {
        match frame {
            Frame::Ingest { actions, corr } => {
                let span = self.make_span(i, crate::protocol::kind::INGEST, corr);
                self.submit_ingest(i, actions, corr, span, false);
            }
            Frame::Query { corr } => {
                let span = self.make_span(i, crate::protocol::kind::QUERY, corr);
                if !self.answer_inline(i, corr, span) {
                    self.submit_request(i, Request::Query, corr, span, false);
                }
            }
            Frame::Stats { corr } => {
                let span = self.make_span(i, crate::protocol::kind::STATS, corr);
                self.submit_request(i, Request::Stats, corr, span, false);
            }
            Frame::Snapshot => {
                let span = self.make_span(i, crate::protocol::kind::SNAPSHOT, None);
                self.submit_request(i, Request::Snapshot, None, span, false);
            }
            Frame::Trace {
                max_events,
                slow_only,
            } => {
                // Answered inline and purely passively: the dump scans the
                // recorder rings without enqueuing engine work, so TRACE
                // cannot perturb the served arrival order (the same
                // argument as the `/metrics` sidecar).
                let dump = match &self.tracer {
                    Some(tracer) => tracer
                        .recorder()
                        .dump(max_events.min(TRACE_DUMP_MAX_EVENTS) as usize, slow_only)
                        .encode(),
                    None => TraceDump::default().encode(),
                };
                let Some(conn) = self.conns[i].as_mut() else {
                    return;
                };
                push_reply(conn, &Frame::TraceReply { dump });
            }
            Frame::Shutdown => {
                self.shared.shutting_down.store(true, Ordering::Release);
                let Some(conn) = self.conns[i].as_mut() else {
                    return;
                };
                push_reply(
                    conn,
                    &Frame::Ack {
                        accepted: 0,
                        queue_depth: conn.sender.queue_depth() as u32,
                        corr: None,
                    },
                );
                for wake in &self.shared.wakes {
                    wake.wake();
                }
            }
            // Reply frames arriving from a confused client.
            other => {
                let Some(conn) = self.conns[i].as_mut() else {
                    return;
                };
                push_reply(
                    conn,
                    &Frame::Error {
                        message: format!("unexpected client frame: {other:?}"),
                        corr: None,
                    },
                );
            }
        }
    }

    /// Enqueues an ingest, parking it when the queue is full (never
    /// `BUSY`: see the module docs on pipelined id-order).  `retry` marks
    /// a re-submission of an already-parked request, so the parked-request
    /// counter counts requests, not 1 ms retry ticks.
    fn submit_ingest(
        &mut self,
        i: usize,
        actions: Vec<rtim_stream::Action>,
        corr: Option<u32>,
        mut span: SpanCtx,
        retry: bool,
    ) {
        if self.shutting() {
            if let Some(conn) = self.conns[i].as_mut() {
                push_reply(
                    conn,
                    &Frame::Error {
                        message: "server is shutting down".into(),
                        corr,
                    },
                );
            }
            return;
        }
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        let count = actions.len() as u64;
        // The queue wait starts at the *first* submission attempt: a
        // parked retry keeps its original stamp, so park time shows up as
        // queue wait — which is what it is.
        if span.enqueue_nanos == 0 {
            if let Some(tracer) = &self.tracer {
                span.enqueue_nanos = tracer.now_nanos();
            }
        }
        match conn.sender.try_ingest_traced(actions, span) {
            Ok(bell) => {
                let queue_depth = conn.sender.queue_depth() as u32;
                push_reply(
                    conn,
                    &Frame::Ack {
                        accepted: count,
                        queue_depth,
                        corr,
                    },
                );
                self.bell = Some(match self.bell.take() {
                    Some(held) => held.join(bell),
                    None => bell,
                });
                if span.sampled {
                    let end = conn.out_total;
                    let (id, corr) = (conn.id, span.corr);
                    self.mark_reply(i, end, id, corr);
                }
            }
            Err(IngestError::Full(actions)) => {
                if !retry {
                    self.shared.metrics.incr_parked_request();
                }
                conn.parked = Some(Parked::Ingest {
                    actions,
                    corr,
                    span,
                });
            }
            Err(e @ IngestError::Invalid(_)) => push_reply(
                conn,
                &Frame::Error {
                    message: e.to_string(),
                    corr,
                },
            ),
            Err(IngestError::Closed) => {
                push_reply(
                    conn,
                    &Frame::Error {
                        message: "engine is shut down".into(),
                        corr,
                    },
                );
                conn.rbuf.clear();
                conn.closing = true;
            }
        }
    }

    /// Answers a `QUERY` from the engine's published answer, when the
    /// connection owes no earlier reply (per-connection FIFO) and the
    /// answer covers every command enqueued so far.  Counted, timed and
    /// traced like an engine answer; `false` means the query must be
    /// queued.
    fn answer_inline(&mut self, i: usize, corr: Option<u32>, span: SpanCtx) -> bool {
        let Some(conn) = self.conns[i].as_mut() else {
            return true;
        };
        if conn.pending > 0 {
            return false;
        }
        let t_start = self.tracer.as_ref().map_or(0, TraceWriter::now_nanos);
        // A closed engine is reported by the queued path.
        let Ok(Some(solution)) = conn.sender.published_answer() else {
            return false;
        };
        push_reply(conn, &Frame::Solution { solution, corr });
        let end = conn.out_total;
        if let Some(tracer) = &mut self.tracer {
            let nanos = tracer.now_nanos().saturating_sub(t_start);
            tracer.request(span, t_start, &[(TraceStage::OracleQuery, nanos)]);
        }
        if span.sampled {
            self.mark_reply(i, end, span.conn, span.corr);
        }
        true
    }

    /// Enqueues a completion-routed request (`QUERY`/`STATS`/`SNAPSHOT`),
    /// parking it when the queue is full (`retry` as in
    /// [`LoopThread::submit_ingest`]).
    fn submit_request(
        &mut self,
        i: usize,
        request: Request,
        corr: Option<u32>,
        mut span: SpanCtx,
        retry: bool,
    ) {
        // First-attempt enqueue stamp, as in `submit_ingest`.
        if span.enqueue_nanos == 0 {
            if let Some(tracer) = &self.tracer {
                span.enqueue_nanos = tracer.now_nanos();
            }
        }
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        let token = self.next_token;
        match conn.sender.try_request(request, token, &self.sink, span) {
            Ok(()) => {
                self.next_token += 1;
                self.pending.insert(
                    token,
                    PendingReply {
                        slot: i,
                        conn_id: conn.id,
                        corr,
                        span,
                    },
                );
                conn.pending += 1;
            }
            Err(AsyncRequestError::Full) => {
                if !retry {
                    self.shared.metrics.incr_parked_request();
                }
                conn.parked = Some(Parked::Request {
                    request,
                    corr,
                    span,
                });
            }
            Err(AsyncRequestError::Closed) => {
                push_reply(
                    conn,
                    &Frame::Error {
                        message: "engine is shut down".into(),
                        corr,
                    },
                );
                conn.rbuf.clear();
                conn.closing = true;
            }
        }
    }

    /// Delivers every completion the engine has produced so far.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completions.try_recv() {
            let Some(route) = self.pending.remove(&completion.token) else {
                continue;
            };
            let Some(conn) = self.conns.get_mut(route.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.id != route.conn_id {
                continue; // slot was reused; the original peer is gone
            }
            conn.pending -= 1;
            let frame = match completion.payload {
                CompletionPayload::Solution(solution) => Frame::Solution {
                    solution,
                    corr: route.corr,
                },
                CompletionPayload::Stats(stats) => Frame::StatsReply {
                    stats,
                    corr: route.corr,
                },
                CompletionPayload::Snapshot(Ok(info)) => Frame::SnapshotReply(info),
                CompletionPayload::Snapshot(Err(e)) => Frame::Error {
                    message: e.to_string(),
                    corr: route.corr,
                },
            };
            push_reply(conn, &frame);
            if route.span.sampled {
                let end = conn.out_total;
                self.mark_reply(route.slot, end, route.span.conn, route.span.corr);
            }
        }
    }

    /// Queues a `reply_drain` mark for a sampled request whose reply was
    /// just appended at absolute outbound offset `end`.
    fn mark_reply(&mut self, i: usize, end: u64, conn_id: u64, corr: u32) {
        let Some(tracer) = &self.tracer else { return };
        let t_pushed = tracer.now_nanos();
        if let Some(conn) = self.conns[i].as_mut() {
            conn.drain_marks.push_back(DrainMark {
                end,
                conn: conn_id,
                corr,
                t_pushed,
            });
        }
    }

    /// Records `reply_drain` spans for every mark the cumulative flushed
    /// byte count has passed.
    fn note_flushed(&mut self, i: usize) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        while conn
            .drain_marks
            .front()
            .is_some_and(|mark| mark.end <= conn.flushed_total)
        {
            let mark = conn.drain_marks.pop_front().expect("front checked");
            let now = tracer.now_nanos();
            tracer.span(
                TraceStage::ReplyDrain.code(),
                mark.conn,
                mark.corr,
                now.saturating_sub(mark.t_pushed),
                0,
            );
        }
    }

    /// Retries every parked request once; on success resumes parsing the
    /// connection's buffered frames.
    fn retry_parked(&mut self, shutting: bool) {
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else {
                continue;
            };
            let Some(request) = conn.parked.take() else {
                continue;
            };
            match request {
                Parked::Ingest {
                    actions,
                    corr,
                    span,
                } => self.submit_ingest(i, actions, corr, span, true),
                Parked::Request {
                    request,
                    corr,
                    span,
                } => self.submit_request(i, request, corr, span, true),
            }
            let resumed = self.conns[i]
                .as_ref()
                .is_some_and(|c| c.parked.is_none() && !c.closing && !shutting);
            if resumed {
                // The buffered frames behind the parked one can move now.
                if !self.parse(i) {
                    self.close(i);
                }
            }
            self.flush_and_ring(i);
        }
    }

    /// Flush pass + close-when-drained pass over every connection.
    fn sweep(&mut self, shutting: bool, deadline_passed: bool) {
        for i in 0..self.conns.len() {
            let mut close = false;
            if let Some(conn) = self.conns[i].as_mut() {
                if !conn.flushed() && flush(conn).is_err() {
                    close = true;
                } else {
                    close = deadline_passed || ((conn.closing || shutting) && conn.drained());
                }
            }
            if close {
                self.close(i);
            } else {
                self.note_flushed(i);
            }
        }
    }

    /// On the first iteration that observes shutdown: stop accepting and
    /// fail parked requests (their batches were never `ACK`ed).
    fn begin_shutdown(&mut self) {
        self.listener = None;
        for conn in self.conns.iter_mut().flatten() {
            if let Some(request) = conn.parked.take() {
                let (Parked::Ingest { corr, .. } | Parked::Request { corr, .. }) = request;
                push_reply(
                    conn,
                    &Frame::Error {
                        message: "server is shutting down".into(),
                        corr,
                    },
                );
            }
        }
    }

    /// Accepts until the backlog is empty, assigning connections to loop
    /// threads round-robin.
    fn accept_new(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let sender = self.spawner.sender();
                    let target = self.rr % self.shared.wakes.len();
                    self.rr += 1;
                    if target == self.index {
                        self.add_conn(stream, sender);
                    } else {
                        self.shared.injects[target]
                            .lock()
                            .expect("lock poisoned")
                            .push((stream, sender));
                        self.shared.wakes[target].wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Adopts connections handed over by the accepting thread.
    fn drain_injected(&mut self, shutting: bool) {
        let injected = std::mem::take(
            &mut *self.shared.injects[self.index]
                .lock()
                .expect("lock poisoned"),
        );
        for (stream, sender) in injected {
            if !shutting {
                self.add_conn(stream, sender);
            }
        }
    }

    /// Registers a fresh connection and queues its `HELLO`.
    fn add_conn(&mut self, stream: TcpStream, sender: IngestSender) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.shared.metrics.incr_connection_opened();
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn {
            id,
            stream,
            sender,
            rbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            parked: None,
            pending: 0,
            closing: false,
            trace_seq: 0,
            t_read: 0,
            out_total: 0,
            flushed_total: 0,
            drain_marks: VecDeque::new(),
        };
        push_reply(
            &mut conn,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
        );
        // The HELLO flushes on the sweep pass of this same iteration.
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.conns[slot] = Some(conn);
        self.live += 1;
    }

    /// Drops a connection (closing its socket) and recycles the slot.
    fn close(&mut self, i: usize) {
        if self.conns[i].take().is_some() {
            self.shared.metrics.incr_connection_closed();
            self.free.push(i);
            self.live -= 1;
        }
    }
}

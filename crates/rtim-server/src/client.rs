//! A small blocking client for the RTIM wire protocol.
//!
//! Used by the integration tests, the served-path benchmark under
//! `perfbench/`, `rtim-cli` and the `live_server` example; deployments
//! with their own I/O stack only need the [`crate::protocol`] codec.
//!
//! One client = one connection = one private id space: action ids must be
//! strictly increasing across everything this client ingests, and replies
//! may reference any earlier action sent *by this client* (the server
//! remaps them onto global arrival order).
//!
//! The plain methods ([`RtimClient::ingest`], [`RtimClient::query`], …)
//! are strict request/reply: one frame out, one frame back.  For
//! throughput, [`RtimClient::pipelined`] opens a [`PipelinedIngest`]
//! session that keeps a window of correlated `INGEST`s in flight on the
//! same socket, so the event loop never stalls on one round trip per
//! batch.

use crate::protocol::{read_frame, write_frame, Frame, FrameError, PROTOCOL_VERSION};
use rtim_core::{EngineStats, SnapshotInfo, Solution};
use rtim_stream::Action;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer broke the framing.
    Frame(FrameError),
    /// The peer answered with a frame the protocol does not allow here.
    Unexpected(String),
    /// The server replied with an `ERROR` frame.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Outcome of one ingest attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestReply {
    /// The batch was enqueued.
    Ack {
        /// Actions accepted.
        accepted: u64,
        /// Queue occupancy right after the enqueue.
        queue_depth: u32,
    },
    /// The bounded queue was full — back off and retry the same batch.
    /// The protocol reserves this reply; `RtimServer` never sends it (it
    /// parks the request instead).
    Busy {
        /// The server's queue capacity (retry-pacing hint).
        capacity: u32,
    },
}

/// A blocking protocol client over one TCP connection.
pub struct RtimClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RtimClient {
    /// Connects and validates the server's `HELLO`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RtimClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = RtimClient {
            reader,
            writer: BufWriter::new(stream),
        };
        match read_frame(&mut client.reader)? {
            Frame::Hello {
                version: PROTOCOL_VERSION,
            } => Ok(client),
            Frame::Hello { version } => Err(ClientError::Unexpected(format!(
                "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
            ))),
            other => Err(ClientError::Unexpected(format!(
                "{other:?} instead of HELLO"
            ))),
        }
    }

    /// Sends one request frame and reads one reply frame.
    fn round_trip(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.writer, request)?;
        Ok(read_frame(&mut self.reader)?)
    }

    /// Ships one batch; a full queue comes back as [`IngestReply::Busy`].
    pub fn ingest(&mut self, actions: &[Action]) -> Result<IngestReply, ClientError> {
        match self.round_trip(&Frame::Ingest {
            actions: actions.to_vec(),
            corr: None,
        })? {
            Frame::Ack {
                accepted,
                queue_depth,
                ..
            } => Ok(IngestReply::Ack {
                accepted,
                queue_depth,
            }),
            Frame::Busy { capacity, .. } => Ok(IngestReply::Busy { capacity }),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to INGEST"))),
        }
    }

    /// Ships one batch, retrying with a short backoff while the server is
    /// busy.  Returns the number of `BUSY` replies absorbed.
    pub fn ingest_blocking(&mut self, actions: &[Action]) -> Result<u64, ClientError> {
        let mut retries = 0u64;
        loop {
            match self.ingest(actions)? {
                IngestReply::Ack { .. } => return Ok(retries),
                IngestReply::Busy { .. } => {
                    retries += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Opens a pipelined ingest session with up to `max_in_flight`
    /// unacknowledged correlated `INGEST`s on this connection.  A `BUSY`
    /// reply fails the session (a bounced batch cannot be retried behind
    /// later ones without breaking id order).  Drop-safe: the session
    /// borrows the client, and [`PipelinedIngest::drain`] must be called
    /// to collect outstanding `ACK`s before issuing plain requests again.
    pub fn pipelined(&mut self, max_in_flight: usize) -> PipelinedIngest<'_> {
        PipelinedIngest {
            client: self,
            window: max_in_flight.max(1),
            in_flight: VecDeque::new(),
            next_corr: 0,
            acked_actions: 0,
        }
    }

    /// Asks for the current SIM answer (seeds in raw user-id space).
    pub fn query(&mut self) -> Result<Solution, ClientError> {
        match self.round_trip(&Frame::Query { corr: None })? {
            Frame::Solution { solution, .. } => Ok(solution),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to QUERY"))),
        }
    }

    /// Asks for the pipeline counters.
    pub fn stats(&mut self) -> Result<EngineStats, ClientError> {
        match self.round_trip(&Frame::Stats { corr: None })? {
            Frame::StatsReply { stats, .. } => Ok(stats),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to STATS"))),
        }
    }

    /// Requests a durable snapshot (covering everything this connection
    /// already ingested).  The server answers with the snapshot's
    /// watermark and byte size, or an `ERROR` if persistence is not
    /// configured.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, ClientError> {
        match self.round_trip(&Frame::Snapshot)? {
            Frame::SnapshotReply(info) => Ok(info),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to SNAPSHOT"))),
        }
    }

    /// Dumps the server's flight recorder: the newest `max_events` trace
    /// events (or only the retained slow-op log with `slow_only`) plus the
    /// cumulative per-stage totals.  Answered inline from the recorder —
    /// never through the engine queue — so tracing stays passive; a server
    /// running without tracing returns an empty dump.
    pub fn trace(
        &mut self,
        max_events: u32,
        slow_only: bool,
    ) -> Result<rtim_stream::trace::TraceDump, ClientError> {
        match self.round_trip(&Frame::Trace {
            max_events,
            slow_only,
        })? {
            Frame::TraceReply { dump } => rtim_stream::trace::TraceDump::decode(&dump)
                .map_err(|e| ClientError::Unexpected(format!("undecodable TRACE dump: {e}"))),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to TRACE"))),
        }
    }

    /// Requests a graceful server shutdown (queue drained, then exit).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Frame::Shutdown)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?} to SHUTDOWN"))),
        }
    }

    /// Raw access to the underlying socket — test hook for injecting
    /// malformed bytes outside the codec.
    pub fn raw_stream(&mut self) -> &mut TcpStream {
        self.writer.get_mut()
    }

    /// Reads one reply frame as-is — test hook paired with
    /// [`RtimClient::raw_stream`] for driving the protocol below the
    /// request/reply helpers (e.g. hand-rolled pipelined bursts).
    pub fn read_reply(&mut self) -> Result<Frame, ClientError> {
        Ok(read_frame(&mut self.reader)?)
    }

    /// Reads one frame and expects a server `ERROR` — test hook paired
    /// with [`RtimClient::raw_stream`].
    pub fn read_error(&mut self) -> Result<String, ClientError> {
        match read_frame(&mut self.reader)? {
            Frame::Error { message, .. } => Ok(message),
            other => Err(ClientError::Unexpected(format!(
                "{other:?} instead of ERROR"
            ))),
        }
    }
}

impl std::fmt::Debug for RtimClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtimClient").finish()
    }
}

/// A pipelined ingest session: up to `window` correlated `INGEST`s stay
/// unacknowledged at once, so the socket never idles on a round trip.
///
/// `ACK`s are verified against the order of issue — the server guarantees
/// per-connection FIFO ingest acknowledgement (an ingest is `ACK`ed at
/// enqueue time, in arrival order), so a mismatched correlation id means a
/// broken peer.  Call [`PipelinedIngest::drain`] before dropping the
/// session; an undrained drop leaves replies in the socket which the next
/// plain request would misread.
pub struct PipelinedIngest<'c> {
    client: &'c mut RtimClient,
    window: usize,
    /// Issue-ordered `(corr, batch_len)` of unacknowledged ingests.
    in_flight: VecDeque<(u32, u64)>,
    next_corr: u32,
    acked_actions: u64,
}

impl PipelinedIngest<'_> {
    /// Ships one batch without waiting for its `ACK`, absorbing older
    /// `ACK`s only when the window is full.
    pub fn ingest(&mut self, actions: &[Action]) -> Result<(), ClientError> {
        while self.in_flight.len() >= self.window {
            self.absorb_one()?;
        }
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        write_frame(
            &mut self.client.writer,
            &Frame::Ingest {
                actions: actions.to_vec(),
                corr: Some(corr),
            },
        )?;
        self.in_flight.push_back((corr, actions.len() as u64));
        Ok(())
    }

    /// Number of unacknowledged ingests right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Waits for every outstanding `ACK`; returns the total actions the
    /// server acknowledged over this session.  The client is back in
    /// strict request/reply state afterwards.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.client.writer.flush()?;
        while !self.in_flight.is_empty() {
            self.absorb_one()?;
        }
        Ok(self.acked_actions)
    }

    fn absorb_one(&mut self) -> Result<(), ClientError> {
        self.client.writer.flush()?;
        let (corr, len) = self
            .in_flight
            .pop_front()
            .expect("absorb_one with nothing in flight");
        match read_frame(&mut self.client.reader)? {
            Frame::Ack {
                accepted,
                corr: echoed,
                ..
            } => {
                if echoed != Some(corr) {
                    return Err(ClientError::Unexpected(format!(
                        "ACK for corr {echoed:?}, expected {corr}"
                    )));
                }
                if accepted != len {
                    return Err(ClientError::Unexpected(format!(
                        "ACK for {accepted} actions, sent {len}"
                    )));
                }
                self.acked_actions += accepted;
                Ok(())
            }
            Frame::Busy { .. } => Err(ClientError::Server(
                "BUSY during pipelined ingest — pipelining requires a parking server".into(),
            )),
            Frame::Error { message, .. } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!(
                "{other:?} to pipelined INGEST"
            ))),
        }
    }
}

impl std::fmt::Debug for PipelinedIngest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedIngest")
            .field("window", &self.window)
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

//! The framed wire protocol.
//!
//! Every message is one **frame**: a 1-byte kind tag, a little-endian
//! `u32` payload length, then the payload.  Payloads reuse the workspace's
//! binary codecs — an `INGEST` frame carries a `RTAB` action batch exactly
//! as produced by [`rtim_stream::encode_batch`] — so the wire format and
//! the on-disk trace format stay one family (see `docs/SERVER.md` for the
//! byte-level layout of every frame).
//!
//! ## Pipelining and correlation ids (protocol v2)
//!
//! Since version 2, `INGEST`/`QUERY`/`STATS` may carry an optional `u32`
//! **correlation id**, which the server echoes verbatim on the matching
//! reply (`ACK`/`SOLUTION`/`STATS`/`BUSY`/`ERROR`).  A client that tags
//! its requests may keep a whole window of them in flight on one socket
//! instead of stalling on a round trip per request.  On the wire, a
//! correlated frame uses a sibling kind tag (`0x1X` for requests, `0x9X`
//! for replies) whose payload is the `corr: u32 LE` followed by the
//! uncorrelated payload; the version-1 tags remain valid and correlate
//! nothing, so v1 clients keep working unmodified.  Replies on one
//! connection arrive in **engine completion order**, which for pipelined
//! traffic is not request order — `ACK`s are emitted at enqueue time while
//! `SOLUTION`s wait for the engine; the correlation id is what lets a
//! client match them up (ordering contract in `docs/SERVER.md`).
//!
//! Decoding is defensive end to end: a length prefix above
//! [`MAX_FRAME_LEN`] is rejected *before* any allocation is sized from it,
//! a stream ending mid-frame is [`FrameError::Truncated`], payload bytes
//! beyond the declared structure are an error, and an unknown kind byte is
//! reported with its value.  Nothing in this module panics on wire input —
//! property-tested in `tests/protocol_props.rs`.

use bytes::Buf;
use rtim_core::{EngineStats, SnapshotInfo, Solution};
use rtim_stream::{decode_batch, encode_batch, Action, UserId, MAX_FRAME_BYTES};
use std::io::{self, Read, Write};

/// Protocol version carried by the server's `HELLO` frame.  Version 2
/// added pipelining: optional correlation ids on requests, echoed on
/// replies (the v1 frame tags are still accepted).
pub const PROTOCOL_VERSION: u8 = 2;

/// Magic bytes inside the `HELLO` payload.
pub const HELLO_MAGIC: &[u8; 4] = b"RTIM";

/// Upper bound on a frame payload (32 MiB ≈ 1.6 M actions per batch) —
/// far above any sane batch, low enough that a hostile length prefix
/// cannot drive allocation.  This is the workspace-wide
/// [`rtim_stream::MAX_FRAME_BYTES`] guard, shared with the `persist` batch
/// decoder and the `RTSS` state codec.
pub const MAX_FRAME_LEN: u32 = MAX_FRAME_BYTES as u32;

/// Frame kind tags.  Client requests have the high bit clear, server
/// replies have it set; the `0x10`/`0x90` bit marks the correlated
/// sibling of a v1 tag (payload prefixed with `corr: u32 LE`).
pub(crate) mod kind {
    pub const INGEST: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const STATS: u8 = 0x03;
    pub const SHUTDOWN: u8 = 0x04;
    pub const SNAPSHOT: u8 = 0x05;
    pub const TRACE: u8 = 0x06;
    pub const INGEST_CORR: u8 = 0x11;
    pub const QUERY_CORR: u8 = 0x12;
    pub const STATS_CORR: u8 = 0x13;
    pub const HELLO: u8 = 0x80;
    pub const ACK: u8 = 0x81;
    pub const SOLUTION: u8 = 0x82;
    pub const STATS_REPLY: u8 = 0x83;
    pub const BUSY: u8 = 0x84;
    pub const SNAPSHOT_REPLY: u8 = 0x85;
    pub const TRACE_REPLY: u8 = 0x86;
    pub const ERROR: u8 = 0x8F;
    pub const ACK_CORR: u8 = 0x91;
    pub const SOLUTION_CORR: u8 = 0x92;
    pub const STATS_REPLY_CORR: u8 = 0x93;
    pub const BUSY_CORR: u8 = 0x94;
    pub const ERROR_CORR: u8 = 0x9F;
}

/// Number of `u64` counters in a `STATS` reply payload (wire order is
/// documented on `encode_stats`).  Version 1 servers sent 14; the three
/// durability counters were appended later, and `decode_stats` accepts
/// both lengths so new clients can talk to old servers.
const STATS_FIELDS: usize = 17;

/// `STATS` field count before the durability counters were appended.
const STATS_FIELDS_V1: usize = 14;

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Server greeting, sent once per connection before anything else.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u8,
    },
    /// Client → server: an action batch in the sender's id space.
    Ingest {
        /// The batch (ids strictly increasing, parents earlier).
        actions: Vec<Action>,
        /// Correlation id echoed on the `ACK`/`BUSY`/`ERROR` reply.
        corr: Option<u32>,
    },
    /// Client → server: answer the SIM query for the current window.
    Query {
        /// Correlation id echoed on the `SOLUTION`/`BUSY`/`ERROR` reply.
        corr: Option<u32>,
    },
    /// Client → server: report pipeline counters.
    Stats {
        /// Correlation id echoed on the `STATS`/`BUSY`/`ERROR` reply.
        corr: Option<u32>,
    },
    /// Client → server: drain the queue and stop the server.
    Shutdown,
    /// Client → server (admin): write a durable snapshot now, covering
    /// every batch this connection already ingested (ordered through the
    /// same queue).
    Snapshot,
    /// Client → server: dump the flight recorder (answered inline from the
    /// recorder, never through the engine queue — tracing stays passive).
    Trace {
        /// Newest ring events to include, at most (the server also caps
        /// the reply at [`MAX_FRAME_LEN`]).
        max_events: u32,
        /// Skip the rings and return only the retained slow-op log.
        slow_only: bool,
    },
    /// Server → client: an `RTTR` flight-recorder dump
    /// ([`rtim_stream::trace::TraceDump`] bytes; empty dump when tracing
    /// is disabled).
    TraceReply {
        /// The encoded dump, decodable with
        /// [`rtim_stream::trace::TraceDump::decode`].
        dump: Vec<u8>,
    },
    /// Server → client: the batch was accepted (enqueued).
    Ack {
        /// Actions accepted.
        accepted: u64,
        /// Queue occupancy observed right after the enqueue.
        queue_depth: u32,
        /// Echo of the request's correlation id.
        corr: Option<u32>,
    },
    /// Server → client: the current SIM answer (seeds in raw id space).
    Solution {
        /// The answer.
        solution: Solution,
        /// Echo of the request's correlation id.
        corr: Option<u32>,
    },
    /// Server → client: pipeline counters.
    StatsReply {
        /// The counters.
        stats: EngineStats,
        /// Echo of the request's correlation id.
        corr: Option<u32>,
    },
    /// Server → client: the bounded queue is full — back off and retry.
    Busy {
        /// The queue capacity, as a retry-pacing hint.
        capacity: u32,
        /// Echo of the request's correlation id.
        corr: Option<u32>,
    },
    /// Server → client: the snapshot was written (watermark + size).
    SnapshotReply(SnapshotInfo),
    /// Server → client: the request failed; the connection stays usable
    /// unless the transport itself broke.
    Error {
        /// Human-readable failure description.
        message: String,
        /// Echo of the request's correlation id, when the request's
        /// framing survived far enough to know it.
        corr: Option<u32>,
    },
}

impl Frame {
    /// The correlation id carried by this frame, if any.
    pub fn corr(&self) -> Option<u32> {
        match self {
            Frame::Ingest { corr, .. }
            | Frame::Query { corr }
            | Frame::Stats { corr }
            | Frame::Ack { corr, .. }
            | Frame::Solution { corr, .. }
            | Frame::StatsReply { corr, .. }
            | Frame::Busy { corr, .. }
            | Frame::Error { corr, .. } => *corr,
            Frame::Hello { .. }
            | Frame::Shutdown
            | Frame::Snapshot
            | Frame::SnapshotReply(_)
            | Frame::Trace { .. }
            | Frame::TraceReply { .. } => None,
        }
    }
}

/// Errors produced while reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// Underlying transport failure.
    Io(io::Error),
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The allowed maximum ([`MAX_FRAME_LEN`]).
        max: u32,
    },
    /// The kind byte is not part of the protocol.
    UnknownKind(u8),
    /// The payload does not decode as the frame kind demands.
    Payload(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Truncated => write!(f, "frame truncated mid-record"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the maximum {max}")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            FrameError::Payload(msg) => write!(f, "bad frame payload: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Appends one encoded frame (`kind + len + payload`) to `out` — the
/// allocation-free path an event loop uses to build a connection's
/// outbound buffer in place.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 5]); // tag + length, patched below
                                      // A correlated frame is its v1 sibling with the corr prepended.
    let corr = frame.corr();
    if let Some(c) = corr {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let tag = match frame {
        Frame::Hello { version } => {
            out.extend_from_slice(HELLO_MAGIC);
            out.push(*version);
            kind::HELLO
        }
        Frame::Ingest { actions, .. } => {
            out.extend_from_slice(&encode_batch(actions));
            if corr.is_some() {
                kind::INGEST_CORR
            } else {
                kind::INGEST
            }
        }
        Frame::Query { .. } => {
            if corr.is_some() {
                kind::QUERY_CORR
            } else {
                kind::QUERY
            }
        }
        Frame::Stats { .. } => {
            if corr.is_some() {
                kind::STATS_CORR
            } else {
                kind::STATS
            }
        }
        Frame::Shutdown => kind::SHUTDOWN,
        Frame::Snapshot => kind::SNAPSHOT,
        Frame::Trace {
            max_events,
            slow_only,
        } => {
            out.extend_from_slice(&max_events.to_le_bytes());
            out.push(u8::from(*slow_only));
            kind::TRACE
        }
        Frame::TraceReply { dump } => {
            out.extend_from_slice(dump);
            kind::TRACE_REPLY
        }
        Frame::SnapshotReply(info) => {
            out.extend_from_slice(&info.watermark.to_le_bytes());
            out.extend_from_slice(&info.bytes.to_le_bytes());
            kind::SNAPSHOT_REPLY
        }
        Frame::Ack {
            accepted,
            queue_depth,
            ..
        } => {
            out.extend_from_slice(&accepted.to_le_bytes());
            out.extend_from_slice(&queue_depth.to_le_bytes());
            if corr.is_some() {
                kind::ACK_CORR
            } else {
                kind::ACK
            }
        }
        Frame::Solution { solution, .. } => {
            out.extend_from_slice(&solution.value.to_bits().to_le_bytes());
            out.extend_from_slice(&(solution.seeds.len() as u32).to_le_bytes());
            for seed in &solution.seeds {
                out.extend_from_slice(&seed.0.to_le_bytes());
            }
            if corr.is_some() {
                kind::SOLUTION_CORR
            } else {
                kind::SOLUTION
            }
        }
        Frame::StatsReply { stats, .. } => {
            encode_stats(stats, out);
            if corr.is_some() {
                kind::STATS_REPLY_CORR
            } else {
                kind::STATS_REPLY
            }
        }
        Frame::Busy { capacity, .. } => {
            out.extend_from_slice(&capacity.to_le_bytes());
            if corr.is_some() {
                kind::BUSY_CORR
            } else {
                kind::BUSY
            }
        }
        Frame::Error { message, .. } => {
            out.extend_from_slice(message.as_bytes());
            if corr.is_some() {
                kind::ERROR_CORR
            } else {
                kind::ERROR
            }
        }
    };
    out[start] = tag;
    let len = (out.len() - start - 5) as u32;
    out[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a frame into fresh `kind + len + payload` bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Writes one frame to the transport (one `write_all`, no partial frames).
///
/// Refuses to emit a frame the peer is guaranteed to reject: a payload
/// above [`MAX_FRAME_LEN`] (an ingest batch of ~1.6 M actions — chunk it)
/// is `InvalidInput`, not a wire write.
pub fn write_frame<W: Write>(mut writer: W, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame);
    if bytes.len() - 5 > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the protocol maximum {MAX_FRAME_LEN}",
                bytes.len() - 5
            ),
        ));
    }
    writer.write_all(&bytes)?;
    writer.flush()
}

/// Reads one frame from the transport.
///
/// A clean EOF *before* the kind byte is [`FrameError::Closed`]; an EOF
/// anywhere later is [`FrameError::Truncated`].
pub fn read_frame<R: Read>(mut reader: R) -> Result<Frame, FrameError> {
    let mut tag = [0u8; 1];
    // Distinguish a clean close (0 bytes) from a mid-frame cut.
    match reader.read(&mut tag) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(reader),
        Err(e) => return Err(e.into()),
    }
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    decode_payload(tag[0], &payload)
}

/// Incremental frame parser over a byte buffer — the event loop's entry
/// point.  Returns `Ok(None)` while the buffer does not yet hold one
/// complete frame, `Ok(Some((frame, consumed)))` once it does (the caller
/// discards `consumed` bytes), and an error for hostile input.  Payload
/// bytes are decoded **in place**, borrowed straight from `buf` — a
/// connection's read buffer feeds the batch decoder with no intermediate
/// copy (see [`rtim_stream::decode_batch_into`]).
///
/// Of the error cases, only [`FrameError::Oversized`] poisons the stream
/// (the payload cannot be skipped safely); for `UnknownKind`/`Payload`
/// errors the frame's `consumed` bytes were well-delimited, so the caller
/// may report the error and keep parsing at `consumed` — the same
/// resynchronization contract as [`read_frame`].
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 5 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let total = 5 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    decode_payload(buf[0], &buf[5..total]).map(|frame| Some((frame, total)))
}

/// How many well-delimited bytes a [`parse_frame`] error consumed: the
/// whole frame for payload-level errors (the stream stays in sync), `None`
/// for an oversized prefix (resynchronization impossible).
pub fn parse_error_consumed(buf: &[u8], err: &FrameError) -> Option<usize> {
    match err {
        FrameError::Oversized { .. } => None,
        _ if buf.len() >= 5 => {
            let len = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes"));
            Some(5 + len as usize)
        }
        _ => None,
    }
}

/// Splits an optional leading correlation id off a correlated payload.
fn take_corr(data: &mut &[u8]) -> Result<u32, FrameError> {
    if data.len() < 4 {
        return Err(FrameError::Payload(
            "correlated frame payload shorter than its corr id".into(),
        ));
    }
    Ok(data.get_u32_le())
}

/// Decodes a payload for the given kind tag.
fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut data = payload;
    // Correlated tags: strip the corr, then decode as the v1 sibling.
    let corr = match tag {
        kind::INGEST_CORR
        | kind::QUERY_CORR
        | kind::STATS_CORR
        | kind::ACK_CORR
        | kind::SOLUTION_CORR
        | kind::STATS_REPLY_CORR
        | kind::BUSY_CORR
        | kind::ERROR_CORR => Some(take_corr(&mut data)?),
        _ => None,
    };
    let base_tag = if corr.is_some() { tag & !0x10 } else { tag };
    let frame = match base_tag {
        kind::HELLO => {
            if data.len() != 5 || &data[..4] != HELLO_MAGIC {
                return Err(FrameError::Payload("malformed HELLO".into()));
            }
            Frame::Hello { version: data[4] }
        }
        kind::INGEST => Frame::Ingest {
            actions: decode_batch(data).map_err(|e| FrameError::Payload(e.to_string()))?,
            corr,
        },
        kind::QUERY => expect_empty(data, Frame::Query { corr })?,
        kind::STATS => expect_empty(data, Frame::Stats { corr })?,
        kind::SHUTDOWN => expect_empty(data, Frame::Shutdown)?,
        kind::SNAPSHOT => expect_empty(data, Frame::Snapshot)?,
        kind::TRACE => {
            if data.len() != 5 {
                return Err(FrameError::Payload("TRACE payload must be 5 bytes".into()));
            }
            let max_events = data.get_u32_le();
            let flags = data.get_u8();
            if flags > 1 {
                return Err(FrameError::Payload(format!(
                    "TRACE flags 0x{flags:02x} has reserved bits set"
                )));
            }
            Frame::Trace {
                max_events,
                slow_only: flags == 1,
            }
        }
        kind::TRACE_REPLY => Frame::TraceReply {
            dump: data.to_vec(),
        },
        kind::SNAPSHOT_REPLY => {
            if data.len() != 16 {
                return Err(FrameError::Payload(
                    "SNAPSHOT reply payload must be 16 bytes".into(),
                ));
            }
            Frame::SnapshotReply(SnapshotInfo {
                watermark: data.get_u64_le(),
                bytes: data.get_u64_le(),
            })
        }
        kind::ACK => {
            if data.len() != 12 {
                return Err(FrameError::Payload("ACK payload must be 12 bytes".into()));
            }
            Frame::Ack {
                accepted: data.get_u64_le(),
                queue_depth: data.get_u32_le(),
                corr,
            }
        }
        kind::SOLUTION => {
            if data.len() < 12 {
                return Err(FrameError::Payload("SOLUTION payload too short".into()));
            }
            let value = f64::from_bits(data.get_u64_le());
            let count = data.get_u32_le() as usize;
            if data.remaining() != count * 4 {
                return Err(FrameError::Payload(format!(
                    "SOLUTION declares {count} seeds but carries {} bytes",
                    data.remaining()
                )));
            }
            let seeds = (0..count).map(|_| UserId(data.get_u32_le())).collect();
            Frame::Solution {
                solution: Solution { seeds, value },
                corr,
            }
        }
        kind::STATS_REPLY => Frame::StatsReply {
            stats: decode_stats(data)?,
            corr,
        },
        kind::BUSY => {
            if data.len() != 4 {
                return Err(FrameError::Payload("BUSY payload must be 4 bytes".into()));
            }
            Frame::Busy {
                capacity: data.get_u32_le(),
                corr,
            }
        }
        kind::ERROR => Frame::Error {
            message: String::from_utf8(data.to_vec())
                .map_err(|_| FrameError::Payload("ERROR message is not UTF-8".into()))?,
            corr,
        },
        other => return Err(FrameError::UnknownKind(other)),
    };
    Ok(frame)
}

fn expect_empty(data: &[u8], frame: Frame) -> Result<Frame, FrameError> {
    if data.is_empty() {
        Ok(frame)
    } else {
        Err(FrameError::Payload(format!(
            "{} trailing bytes on a bodyless frame",
            data.len()
        )))
    }
}

/// Encodes [`EngineStats`] as 17 little-endian `u64`s, in field order:
/// `actions, batches, slides, checkpoints, oracle_updates, feed_nanos,
/// query_nanos, queue_depth, max_queue_depth, users, orphaned_replies,
/// shard_migrations, shard_ewma_min_nanos, shard_ewma_max_nanos,
/// journal_lag_batches, snapshot_age_slides, durability_state`.
fn encode_stats(stats: &EngineStats, out: &mut Vec<u8>) {
    out.reserve(8 * STATS_FIELDS);
    for v in [
        stats.actions,
        stats.batches,
        stats.slides,
        stats.checkpoints,
        stats.oracle_updates,
        stats.feed_nanos,
        stats.query_nanos,
        stats.queue_depth,
        stats.max_queue_depth,
        stats.users,
        stats.orphaned_replies,
        stats.shard_migrations,
        stats.shard_ewma_min_nanos,
        stats.shard_ewma_max_nanos,
        stats.journal_lag_batches,
        stats.snapshot_age_slides,
        stats.durability_state,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(mut data: &[u8]) -> Result<EngineStats, FrameError> {
    // A 14-field payload is a pre-durability server: the three appended
    // counters decode as zero (`durability_state` 0 = disabled).
    if data.len() != 8 * STATS_FIELDS && data.len() != 8 * STATS_FIELDS_V1 {
        return Err(FrameError::Payload(format!(
            "STATS payload must be {} or {} bytes, got {}",
            8 * STATS_FIELDS_V1,
            8 * STATS_FIELDS,
            data.len()
        )));
    }
    let extended = data.len() == 8 * STATS_FIELDS;
    let mut stats = EngineStats {
        actions: data.get_u64_le(),
        batches: data.get_u64_le(),
        slides: data.get_u64_le(),
        checkpoints: data.get_u64_le(),
        oracle_updates: data.get_u64_le(),
        feed_nanos: data.get_u64_le(),
        query_nanos: data.get_u64_le(),
        queue_depth: data.get_u64_le(),
        max_queue_depth: data.get_u64_le(),
        users: data.get_u64_le(),
        orphaned_replies: data.get_u64_le(),
        shard_migrations: data.get_u64_le(),
        shard_ewma_min_nanos: data.get_u64_le(),
        shard_ewma_max_nanos: data.get_u64_le(),
        journal_lag_batches: 0,
        snapshot_age_slides: 0,
        durability_state: 0,
    };
    if extended {
        stats.journal_lag_batches = data.get_u64_le();
        stats.snapshot_age_slides = data.get_u64_le();
        stats.durability_state = data.get_u64_le();
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let decoded = read_frame(bytes.as_slice()).unwrap();
        assert_eq!(decoded, frame);
        // The incremental parser agrees with the blocking reader.
        let (parsed, consumed) = parse_frame(&bytes).unwrap().unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn all_frames_round_trip() {
        for corr in [None, Some(0u32), Some(u32::MAX)] {
            round_trip(Frame::Ingest {
                actions: vec![
                    Action::root(1u64, 7u32),
                    Action::reply(3u64, 8u32, 1u64),
                    Action::reply(5u64, 9u32, 2u64), // cross-batch parent
                ],
                corr,
            });
            round_trip(Frame::Query { corr });
            round_trip(Frame::Stats { corr });
            round_trip(Frame::Ack {
                accepted: 500,
                queue_depth: 3,
                corr,
            });
            round_trip(Frame::Solution {
                solution: Solution {
                    seeds: vec![UserId(4), UserId(1_000_000)],
                    value: 42.5,
                },
                corr,
            });
            round_trip(Frame::StatsReply {
                stats: EngineStats {
                    actions: 1,
                    batches: 2,
                    slides: 3,
                    checkpoints: 4,
                    oracle_updates: 5,
                    feed_nanos: 6,
                    query_nanos: 7,
                    queue_depth: 8,
                    max_queue_depth: 9,
                    users: 10,
                    orphaned_replies: 11,
                    shard_migrations: 12,
                    shard_ewma_min_nanos: 13,
                    shard_ewma_max_nanos: 14,
                    journal_lag_batches: 15,
                    snapshot_age_slides: 16,
                    durability_state: 2,
                },
                corr,
            });
            round_trip(Frame::Busy { capacity: 64, corr });
            round_trip(Frame::Error {
                message: "boom".into(),
                corr,
            });
        }
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Shutdown);
        round_trip(Frame::Snapshot);
        round_trip(Frame::SnapshotReply(SnapshotInfo {
            watermark: 120_000,
            bytes: 48_000,
        }));
        round_trip(Frame::Trace {
            max_events: 4096,
            slow_only: false,
        });
        round_trip(Frame::Trace {
            max_events: 0,
            slow_only: true,
        });
        round_trip(Frame::TraceReply {
            dump: rtim_stream::trace::TraceDump::default().encode(),
        });
    }

    /// TRACE framing is defensive: wrong payload size and reserved flag
    /// bits are typed errors, and the reply carries opaque RTTR bytes.
    #[test]
    fn trace_frames_reject_malformed_payloads() {
        let mut bytes = vec![0x06];
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
        let mut bytes = vec![0x06];
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 0xFE]); // reserved flag bits
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
    }

    /// A 14-field STATS payload from a pre-durability server decodes with
    /// the appended counters zeroed; other lengths stay rejected.
    #[test]
    fn stats_reply_tolerates_the_v1_field_count() {
        let mut payload = Vec::new();
        for v in 1..=14u64 {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut bytes = vec![kind::STATS_REPLY];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let frame = read_frame(bytes.as_slice()).unwrap();
        match frame {
            Frame::StatsReply { stats, corr: None } => {
                assert_eq!(stats.actions, 1);
                assert_eq!(stats.shard_ewma_max_nanos, 14);
                assert_eq!(stats.journal_lag_batches, 0);
                assert_eq!(stats.snapshot_age_slides, 0);
                assert_eq!(stats.durability_state, 0);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        // 15 fields is neither version: typed error, not a panic.
        let mut bad = vec![kind::STATS_REPLY];
        bad.extend_from_slice(&(15 * 8u32).to_le_bytes());
        bad.extend_from_slice(&[0u8; 15 * 8]);
        assert!(matches!(
            read_frame(bad.as_slice()),
            Err(FrameError::Payload(_))
        ));
    }

    #[test]
    fn correlated_tags_are_the_v1_sibling_plus_a_corr_prefix() {
        let plain = encode_frame(&Frame::Query { corr: None });
        let tagged = encode_frame(&Frame::Query { corr: Some(7) });
        assert_eq!(plain[0], 0x02);
        assert_eq!(tagged[0], 0x12);
        assert_eq!(&tagged[5..9], &7u32.to_le_bytes());
        assert_eq!(&tagged[9..], &plain[5..]);
    }

    #[test]
    fn correlated_frame_too_short_for_its_corr_is_a_payload_error() {
        for tag in [0x11u8, 0x12, 0x13, 0x91, 0x92, 0x93, 0x94, 0x9F] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&2u32.to_le_bytes());
            bytes.extend_from_slice(&[0, 0]); // 2 bytes < 4-byte corr
            assert!(
                matches!(read_frame(bytes.as_slice()), Err(FrameError::Payload(_))),
                "tag 0x{tag:02x}"
            );
        }
    }

    #[test]
    fn snapshot_frames_reject_payload_garbage() {
        // SNAPSHOT must be bodyless.
        let mut bytes = vec![0x05];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0);
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
        // SNAPSHOT reply must be exactly 16 bytes.
        let mut bytes = vec![0x85];
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
    }

    #[test]
    fn clean_eof_is_closed_and_midframe_eof_is_truncated() {
        assert!(matches!(read_frame(&[][..]), Err(FrameError::Closed)));
        let bytes = encode_frame(&Frame::Query { corr: None });
        for cut in 1..bytes.len() {
            let err = read_frame(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut {cut}: {err}");
        }
        let bytes = encode_frame(&Frame::Ingest {
            actions: vec![Action::root(1u64, 1u32)],
            corr: None,
        });
        let err = read_frame(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, FrameError::Truncated), "{err}");
    }

    #[test]
    fn incremental_parser_waits_for_whole_frames() {
        let bytes = encode_frame(&Frame::Ingest {
            actions: vec![Action::root(1u64, 1u32), Action::root(2u64, 2u32)],
            corr: Some(9),
        });
        for cut in 0..bytes.len() {
            assert!(
                parse_frame(&bytes[..cut]).unwrap().is_none(),
                "cut {cut} should be incomplete"
            );
        }
        let (frame, consumed) = parse_frame(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.corr(), Some(9));
        // Trailing bytes of the next frame don't confuse it.
        let mut two = bytes.clone();
        two.extend_from_slice(&encode_frame(&Frame::Query { corr: None }));
        let (_, consumed) = parse_frame(&two).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = vec![0x02]; // QUERY
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversized { len: u32::MAX, .. }),
            "{err}"
        );
        let err = parse_frame(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
        assert_eq!(parse_error_consumed(&bytes, &err), None);
    }

    #[test]
    fn unknown_kind_and_bad_payloads_are_typed_errors() {
        let mut bytes = vec![0x55];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::UnknownKind(0x55))
        ));
        let err = parse_frame(bytes.as_slice()).unwrap_err();
        assert_eq!(parse_error_consumed(&bytes, &err), Some(bytes.len()));
        // QUERY with trailing payload bytes.
        let mut bytes = vec![0x02];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"xx");
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
        // SOLUTION whose seed count disagrees with its length.
        let mut p = Vec::new();
        p.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        p.extend_from_slice(&9u32.to_le_bytes()); // claims 9 seeds, has 0
        let mut bytes = vec![0x82];
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&p);
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
        // INGEST carrying garbage instead of an RTAB batch.
        let mut bytes = vec![0x01];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Payload(_))
        ));
    }

    #[test]
    fn frames_decode_back_to_back_from_one_stream() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&Frame::Ingest {
            actions: vec![Action::root(1u64, 1u32)],
            corr: Some(1),
        }));
        stream.extend_from_slice(&encode_frame(&Frame::Query { corr: None }));
        stream.extend_from_slice(&encode_frame(&Frame::Shutdown));
        let mut cursor = stream.as_slice();
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            Frame::Ingest { .. }
        ));
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Frame::Query { corr: None }
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Frame::Shutdown);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }
}

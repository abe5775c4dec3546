//! The `RTTR` trace codec: fixed-size binary trace events, slow-op
//! records and the bounded dump the `TRACE` wire command drains.
//!
//! `RTAS`/`RTAB` persist streams and `RTSS` persists state; the flight
//! recorder (`rtim_core::trace`) needs a third, much smaller codec: a
//! **typed binary dump** of its in-memory rings that survives a wire hop
//! (`TRACE` → `0x86` reply) and a CLI render without re-interpretation.
//! Events are a fixed 32 bytes so the recorder can store them in
//! lock-free word-granular ring slots and the codec can size its
//! allocations from the declared counts without trusting them beyond the
//! input length (the same hostile-length discipline as the `RTSS`
//! [`ByteReader`](crate::persist::state::ByteReader)).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "RTTR" | version u8 | flags u8 | reserved u16
//! event_count u32 | slow_count u32
//! stage_totals: STAGE_COUNT × (count u64, nanos u64)
//! events:    event_count × 32 bytes   (TraceEvent::encode)
//! slow ops:  slow_count  × 96 bytes   (SlowOp::encode)
//! ```
//!
//! Decoding is panic-free: truncation at any byte offset is reported as
//! [`TraceCodecError::Truncated`] (property-tested in
//! `tests/trace_codec_props.rs`, matching the persist-codec test style).

/// Magic bytes of the trace-dump format ("RTTR" = RTim TRace).
pub const TRACE_MAGIC: &[u8; 4] = b"RTTR";

/// Schema version of the trace-dump format.
pub const TRACE_VERSION: u8 = 1;

/// Encoded size of one [`TraceEvent`].
pub const TRACE_EVENT_BYTES: usize = 32;

/// Encoded size of one [`SlowOp`] record.
pub const SLOW_OP_BYTES: usize = 8 + 4 + 1 + 3 + 8 + 8 + 8 * SLOW_STAGES;

/// Stages carried in a slow-op breakdown (indices `0..SLOW_STAGES` of the
/// [`TraceStage`] wire codes).
pub const SLOW_STAGES: usize = 8;

/// Number of distinct stage/event codes (span stages + lifecycle events).
pub const STAGE_COUNT: usize = 12;

/// Pipeline stage / lifecycle event taxonomy.
///
/// Codes `0..SLOW_STAGES` are request-pipeline span stages (the ones a
/// slow-op breakdown indexes); codes from [`TraceStage::Degrade`] up are
/// durability/lifecycle events recorded as zero- or span-duration
/// black-box markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// Socket readable → frame parsed (front-end).
    Parse = 0,
    /// Enqueue → dequeue wait in the bounded command queue.
    QueueWait = 1,
    /// Journal append ahead of the ingest (durable configurations).
    JournalAppend = 2,
    /// Ancestry resolution + interning over the batch (engine thread).
    Resolve = 3,
    /// Window maintenance + framework checkpoint fan-out per slide.
    ShardFeed = 4,
    /// Engine-side service of a `QUERY` (oracle answer assembly).
    OracleQuery = 5,
    /// Snapshot rotation + background-writer dispatch.
    SnapshotDispatch = 6,
    /// Reply bytes fully drained to the socket (front-end).
    ReplyDrain = 7,
    /// One shard worker's slice of a slide feed (reported back with the
    /// pool's `Fed` replies; `aux` carries the worker index).
    ShardSpan = 8,
    /// Durability degraded to serve-from-memory (`aux` = wire cause code).
    Degrade = 9,
    /// Durability re-armed after a degrade (`aux` = lost batches, capped).
    Rearm = 10,
    /// Journal segment rotation under a snapshot, or an adaptive-placement
    /// checkpoint migration (`aux` distinguishes: 0 = rotation,
    /// 1 = migration).
    Lifecycle = 11,
}

impl TraceStage {
    /// All stages, in wire-code order.
    pub const ALL: [TraceStage; STAGE_COUNT] = [
        TraceStage::Parse,
        TraceStage::QueueWait,
        TraceStage::JournalAppend,
        TraceStage::Resolve,
        TraceStage::ShardFeed,
        TraceStage::OracleQuery,
        TraceStage::SnapshotDispatch,
        TraceStage::ReplyDrain,
        TraceStage::ShardSpan,
        TraceStage::Degrade,
        TraceStage::Rearm,
        TraceStage::Lifecycle,
    ];

    /// The stage's wire code (also its index into stage-total arrays).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code (`None` for unknown codes).
    pub fn from_code(code: u8) -> Option<TraceStage> {
        TraceStage::ALL.get(code as usize).copied()
    }

    /// Stable lower-snake name used by `/trace` JSON lines and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Parse => "parse",
            TraceStage::QueueWait => "queue_wait",
            TraceStage::JournalAppend => "journal_append",
            TraceStage::Resolve => "resolve",
            TraceStage::ShardFeed => "shard_feed",
            TraceStage::OracleQuery => "oracle_query",
            TraceStage::SnapshotDispatch => "snapshot_dispatch",
            TraceStage::ReplyDrain => "reply_drain",
            TraceStage::ShardSpan => "shard_span",
            TraceStage::Degrade => "degrade",
            TraceStage::Rearm => "rearm",
            TraceStage::Lifecycle => "lifecycle",
        }
    }
}

/// One fixed-size flight-recorder event.
///
/// `nanos` is the event's **end** time in nanoseconds since the
/// recorder's epoch (a per-process monotonic instant), so
/// `nanos - duration_nanos` is its start.  `conn` is the front-end
/// connection id (or engine source id; `u64::MAX` when not applicable),
/// `corr` the request's correlation id (`u32::MAX` when absent), `lane`
/// the recorder ring the event was written to (one per writer thread) and
/// `aux` a small stage-specific payload (shard index, degrade cause, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// End time: monotonic nanoseconds since the recorder epoch.
    pub nanos: u64,
    /// Span duration in nanoseconds (0 for point events).
    pub duration_nanos: u64,
    /// Connection / source id (`u64::MAX` = none).
    pub conn: u64,
    /// Correlation id (`u32::MAX` = none).
    pub corr: u32,
    /// Stage wire code (see [`TraceStage`]).
    pub stage: u8,
    /// Writer lane (per-thread ring index).
    pub lane: u8,
    /// Stage-specific small payload.
    pub aux: u16,
}

impl TraceEvent {
    /// Packs the event into 4 little-endian words (the ring-slot form;
    /// word 3 packs `corr | stage<<32 | lane<<40 | aux<<48`).
    pub fn to_words(self) -> [u64; 4] {
        [
            self.nanos,
            self.duration_nanos,
            self.conn,
            u64::from(self.corr)
                | (u64::from(self.stage) << 32)
                | (u64::from(self.lane) << 40)
                | (u64::from(self.aux) << 48),
        ]
    }

    /// Unpacks an event from its 4-word ring-slot form.
    pub fn from_words(words: [u64; 4]) -> TraceEvent {
        TraceEvent {
            nanos: words[0],
            duration_nanos: words[1],
            conn: words[2],
            corr: words[3] as u32,
            stage: (words[3] >> 32) as u8,
            lane: (words[3] >> 40) as u8,
            aux: (words[3] >> 48) as u16,
        }
    }

    /// Appends the 32-byte wire form.
    pub fn encode_into(self, out: &mut Vec<u8>) {
        for w in self.to_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> TraceEvent {
        debug_assert_eq!(bytes.len(), TRACE_EVENT_BYTES);
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte chunk"));
        }
        TraceEvent::from_words(words)
    }
}

/// A promoted slow operation: the full per-stage breakdown of one request
/// whose end-to-end span exceeded the configured threshold.
///
/// `stages[i]` is the nanoseconds spent in the stage with wire code `i`
/// (`0..SLOW_STAGES`); stages the request never entered stay 0, and the
/// stage sum is always ≤ `total_nanos` (the remainder is time between
/// instrumented stages, e.g. the reply still sitting in the out-buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowOp {
    /// Connection / source id of the slow request.
    pub conn: u64,
    /// Correlation id (`u32::MAX` = none).
    pub corr: u32,
    /// Request kind: the protocol tag of the triggering frame
    /// (`0x01` ingest, `0x02` query, `0x03` stats).
    pub kind: u8,
    /// Start time: monotonic nanoseconds since the recorder epoch.
    pub start_nanos: u64,
    /// End-to-end span in nanoseconds.
    pub total_nanos: u64,
    /// Per-stage nanoseconds, indexed by stage wire code.
    pub stages: [u64; SLOW_STAGES],
}

impl SlowOp {
    /// Appends the 96-byte wire form.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.conn.to_le_bytes());
        out.extend_from_slice(&self.corr.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.start_nanos.to_le_bytes());
        out.extend_from_slice(&self.total_nanos.to_le_bytes());
        for s in self.stages {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> SlowOp {
        debug_assert_eq!(bytes.len(), SLOW_OP_BYTES);
        let u64_at =
            |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8-byte field"));
        let mut stages = [0u64; SLOW_STAGES];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = u64_at(32 + i * 8);
        }
        SlowOp {
            conn: u64_at(0),
            corr: u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte field")),
            kind: bytes[12],
            start_nanos: u64_at(16),
            total_nanos: u64_at(24),
            stages,
        }
    }
}

/// A bounded snapshot of the flight recorder: ring events (oldest first
/// per lane), retained slow ops, and the recorder's cumulative per-stage
/// totals (count, nanos) — everything the `TRACE` reply, `GET /trace` and
/// `rtim-cli trace` render from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDump {
    /// Ring events, ordered by `(lane, nanos)`.
    pub events: Vec<TraceEvent>,
    /// Retained slow-op records, oldest first.
    pub slow_ops: Vec<SlowOp>,
    /// Cumulative `(events recorded, nanos spanned)` per stage wire code,
    /// since the recorder was created (not limited to the ring window).
    pub stage_totals: [(u64, u64); STAGE_COUNT],
}

/// Errors produced while decoding a trace dump.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceCodecError {
    /// The input does not start with the `RTTR` magic.
    BadHeader,
    /// The input declares a schema version this build cannot read.
    UnsupportedVersion(u8),
    /// The input ended before the declared counts were satisfied.
    Truncated,
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::BadHeader => write!(f, "not an RTTR trace dump (bad header)"),
            TraceCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported RTTR schema version {v}")
            }
            TraceCodecError::Truncated => write!(f, "trace dump truncated mid-field"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

impl TraceDump {
    /// Encodes the dump (see the [module docs](self) for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            12 + STAGE_COUNT * 16
                + self.events.len() * TRACE_EVENT_BYTES
                + self.slow_ops.len() * SLOW_OP_BYTES,
        );
        out.extend_from_slice(TRACE_MAGIC);
        out.push(TRACE_VERSION);
        out.push(0); // flags
        out.extend_from_slice(&[0u8; 2]); // reserved
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.slow_ops.len() as u32).to_le_bytes());
        for (count, nanos) in self.stage_totals {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&nanos.to_le_bytes());
        }
        for event in &self.events {
            event.encode_into(&mut out);
        }
        for op in &self.slow_ops {
            op.encode_into(&mut out);
        }
        out
    }

    /// Decodes a dump, never panicking on truncated or hostile input:
    /// declared counts are validated against the bytes actually present
    /// before any allocation is sized from them.
    pub fn decode(bytes: &[u8]) -> Result<TraceDump, TraceCodecError> {
        if bytes.len() < 4 {
            return Err(TraceCodecError::Truncated);
        }
        if &bytes[..4] != TRACE_MAGIC {
            return Err(TraceCodecError::BadHeader);
        }
        if bytes.len() < 16 {
            return Err(TraceCodecError::Truncated);
        }
        if bytes[4] != TRACE_VERSION {
            return Err(TraceCodecError::UnsupportedVersion(bytes[4]));
        }
        // Header: magic 0..4, version 4, flags 5, reserved 6..8,
        // event_count 8..12, slow_count 12..16.
        let event_count =
            u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte field")) as usize;
        let slow_count =
            u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte field")) as usize;
        let totals_bytes = STAGE_COUNT * 16;
        let body = event_count
            .checked_mul(TRACE_EVENT_BYTES)
            .and_then(|e| {
                slow_count
                    .checked_mul(SLOW_OP_BYTES)
                    .and_then(|s| e.checked_add(s))
            })
            .and_then(|b| b.checked_add(16 + totals_bytes))
            .ok_or(TraceCodecError::Truncated)?;
        if bytes.len() < body {
            return Err(TraceCodecError::Truncated);
        }
        let mut stage_totals = [(0u64, 0u64); STAGE_COUNT];
        let mut offset = 16usize;
        for slot in stage_totals.iter_mut() {
            let count =
                u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte field"));
            let nanos = u64::from_le_bytes(
                bytes[offset + 8..offset + 16]
                    .try_into()
                    .expect("8-byte field"),
            );
            *slot = (count, nanos);
            offset += 16;
        }
        let mut events = Vec::with_capacity(event_count);
        for _ in 0..event_count {
            events.push(TraceEvent::decode(
                &bytes[offset..offset + TRACE_EVENT_BYTES],
            ));
            offset += TRACE_EVENT_BYTES;
        }
        let mut slow_ops = Vec::with_capacity(slow_count);
        for _ in 0..slow_count {
            slow_ops.push(SlowOp::decode(&bytes[offset..offset + SLOW_OP_BYTES]));
            offset += SLOW_OP_BYTES;
        }
        Ok(TraceDump {
            events,
            slow_ops,
            stage_totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(nanos: u64, stage: TraceStage) -> TraceEvent {
        TraceEvent {
            nanos,
            duration_nanos: nanos / 2,
            conn: 7,
            corr: 42,
            stage: stage.code(),
            lane: 3,
            aux: 9,
        }
    }

    #[test]
    fn event_words_round_trip_all_fields() {
        let e = TraceEvent {
            nanos: u64::MAX - 1,
            duration_nanos: 12345,
            conn: u64::MAX,
            corr: u32::MAX,
            stage: TraceStage::Lifecycle.code(),
            lane: 255,
            aux: u16::MAX,
        };
        assert_eq!(TraceEvent::from_words(e.to_words()), e);
    }

    #[test]
    fn dump_round_trips() {
        let mut dump = TraceDump {
            events: vec![
                event(10, TraceStage::Parse),
                event(20, TraceStage::ShardFeed),
            ],
            slow_ops: vec![SlowOp {
                conn: 1,
                corr: 2,
                kind: 0x01,
                start_nanos: 5,
                total_nanos: 100,
                stages: [1, 2, 3, 4, 5, 6, 7, 8],
            }],
            stage_totals: [(0, 0); STAGE_COUNT],
        };
        dump.stage_totals[TraceStage::Parse.code() as usize] = (2, 30);
        let bytes = dump.encode();
        assert_eq!(TraceDump::decode(&bytes).unwrap(), dump);
    }

    #[test]
    fn empty_dump_round_trips() {
        let dump = TraceDump::default();
        assert_eq!(TraceDump::decode(&dump.encode()).unwrap(), dump);
    }

    #[test]
    fn stage_codes_are_dense_and_named() {
        for (i, stage) in TraceStage::ALL.iter().enumerate() {
            assert_eq!(stage.code() as usize, i);
            assert_eq!(TraceStage::from_code(stage.code()), Some(*stage));
            assert!(!stage.name().is_empty());
        }
        assert_eq!(TraceStage::from_code(STAGE_COUNT as u8), None);
    }

    #[test]
    fn hostile_counts_cannot_oversize_allocations() {
        // A header declaring u32::MAX events must fail on the length
        // check, not attempt a 128 GiB allocation.
        let mut bytes = TraceDump::default().encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(TraceDump::decode(&bytes), Err(TraceCodecError::Truncated));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        assert_eq!(
            TraceDump::decode(b"NOPE00000000"),
            Err(TraceCodecError::BadHeader)
        );
        let mut bytes = TraceDump::default().encode();
        bytes[4] = 99;
        assert_eq!(
            TraceDump::decode(&bytes),
            Err(TraceCodecError::UnsupportedVersion(99))
        );
    }
}

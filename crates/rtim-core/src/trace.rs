//! In-memory flight recorder: lock-free per-thread trace rings, slow-op
//! capture and bounded passive dumps.
//!
//! The recorder answers the questions `/metrics` aggregates cannot:
//! *which* frame spent its latency where (parse, queue wait, journal,
//! resolve, shard feed, reply drain), and *what happened just before* a
//! durability transition.  Design constraints, in order:
//!
//! 1. **Zero allocation on the hot path.**  Events are fixed 32-byte
//!    records ([`TraceEvent`]) written into pre-allocated rings; recording
//!    is a handful of atomic stores.  With the `trace` cargo feature off,
//!    [`TraceConfig::is_enabled`] is compile-time `false`, so every
//!    instrumentation site folds to nothing.
//! 2. **Purely passive reads.**  Dumping ([`FlightRecorder::dump`]) scans
//!    the rings without stopping writers and never enqueues engine work —
//!    the same scrape-determinism argument as the metrics sidecar, which
//!    is why tracing preserves bit-identity (pinned by the 256-connection
//!    determinism test at sample rate 1).
//! 3. **Single writer per lane.**  Each recording thread registers its own
//!    ring lane ([`FlightRecorder::writer`]); there is no cross-thread
//!    write contention, and per-lane event indices make dump ordering
//!    exactly monotonic per thread.
//!
//! Each ring slot is guarded by a per-slot sequence word (a seqlock):
//! the writer publishes `2·index+1` before touching the slot's data words
//! and `2·index+2` after, with release fences between; a reader keeps a
//! slot only if the sequence was even and unchanged around its copy of
//! the data.  Torn reads are therefore impossible (property-tested against
//! a naive `VecDeque` model with a racing writer), the writer never waits,
//! and the oldest events are silently overwritten — flight-recorder
//! semantics.  Everything is safe Rust over `AtomicU64`s; this crate
//! forbids `unsafe`.
//!
//! Slow-op capture is the exception to sampling: any request whose
//! end-to-end span exceeds [`TraceConfig::slow_nanos`] has its full stage
//! breakdown promoted to a separate bounded log ([`SlowOp`]), mutex-kept
//! because promotion is off the common path.  See `docs/TRACING.md`.

use rtim_stream::trace::{SlowOp, TraceDump, TraceEvent, TraceStage, SLOW_STAGES, STAGE_COUNT};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic nanoseconds since a fixed epoch.  The engine thread reads
/// every stage time off one clock: the recorder's when tracing is on (so
/// stage durations and ring event times share a time base), else one
/// started with the thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub(crate) fn start() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub(crate) fn now_nanos(self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Hard cap on writer lanes; registration beyond it yields disarmed
/// writers (recording drops, counted) rather than unbounded memory.
pub const MAX_LANES: usize = 32;

/// Flight-recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample 1-in-`sample` request frames (`0` disables tracing, `1`
    /// traces every frame).  Lifecycle events and slow-op capture ignore
    /// sampling — they are always on while tracing is enabled.
    pub sample: u32,
    /// End-to-end threshold (nanoseconds) above which a request's stage
    /// breakdown is promoted to the retained slow-op log.  `u64::MAX`
    /// disables promotion; `0` promotes everything (useful in smokes).
    pub slow_nanos: u64,
    /// Events retained per writer lane (ring capacity).
    pub ring_capacity: usize,
    /// Slow-op records retained (oldest evicted first).
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample: 0,
            slow_nanos: u64::MAX,
            ring_capacity: 4096,
            slow_capacity: 256,
        }
    }
}

impl TraceConfig {
    /// Tracing enabled at 1-in-`sample`, slow-op threshold in millis.
    pub fn sampled(sample: u32, slow_ms: u64) -> Self {
        TraceConfig {
            sample,
            slow_nanos: slow_ms.saturating_mul(1_000_000),
            ..TraceConfig::default()
        }
    }

    /// Whether this configuration records anything at all.  With the
    /// `trace` cargo feature disabled this is compile-time `false`: the
    /// recorder is never constructed and every instrumentation site —
    /// all guarded by an `Option` that stays `None` — folds away, giving
    /// the required zero-allocation no-op path.
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.sample > 0
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }
}

/// One single-writer ring lane: `capacity` slots, each a sequence word
/// plus four data words (the [`TraceEvent`] packing).
struct Lane {
    /// Per-slot sequence: `0` = never written, odd = write in progress,
    /// `2·index+2` = event `index` committed.
    seq: Vec<AtomicU64>,
    /// Slot data, 4 words per slot.
    words: Vec<AtomicU64>,
}

impl Lane {
    fn new(capacity: usize) -> Lane {
        Lane {
            seq: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * 4).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Seqlock-validated snapshot: every committed slot as
    /// `(event index, event)`, in no particular order.  Slots mid-write
    /// (or overwritten between the two sequence reads) are skipped — a
    /// reader never observes a torn event.
    fn snapshot(&self, out: &mut Vec<(u64, TraceEvent)>) {
        for (slot, seq) in self.seq.iter().enumerate() {
            let s1 = seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let base = slot * 4;
            let words = [
                self.words[base].load(Ordering::Relaxed),
                self.words[base + 1].load(Ordering::Relaxed),
                self.words[base + 2].load(Ordering::Relaxed),
                self.words[base + 3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            let s2 = seq.load(Ordering::Relaxed);
            if s1 == s2 {
                out.push((s1 / 2 - 1, TraceEvent::from_words(words)));
            }
        }
    }
}

/// Single-writer handle onto one recorder lane.
///
/// Created via [`FlightRecorder::writer`]; each recording thread owns
/// exactly one (the engine loop, each event-loop thread, the persistence
/// layer's lifecycle lane, …), which is what makes the rings lock-free.
pub struct TraceWriter {
    recorder: Arc<FlightRecorder>,
    lane: Option<(u8, Arc<Lane>)>,
    next: u64,
}

impl TraceWriter {
    /// Nanoseconds since the recorder epoch (monotonic).
    pub fn now_nanos(&self) -> u64 {
        self.recorder.now_nanos()
    }

    /// The shared recorder this writer feeds.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// This writer's lane id (`u8::MAX` when disarmed past [`MAX_LANES`]).
    pub fn lane(&self) -> u8 {
        self.lane.as_ref().map_or(u8::MAX, |(id, _)| *id)
    }

    /// Records one event (the `lane` field is stamped here).  Wait-free:
    /// a claim, four stores and a commit; overwrites the lane's oldest
    /// event once the ring is full.
    pub fn record(&mut self, mut event: TraceEvent) {
        let Some((lane_id, lane)) = &self.lane else {
            self.recorder.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        event.lane = *lane_id;
        let index = self.next;
        self.next += 1;
        let slot = (index % lane.seq.len() as u64) as usize;
        let words = event.to_words();
        lane.seq[slot].store(2 * index + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let base = slot * 4;
        for (i, w) in words.iter().enumerate() {
            lane.words[base + i].store(*w, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        lane.seq[slot].store(2 * index + 2, Ordering::Release);
        self.recorder.bump_stage(event.stage, event.duration_nanos);
    }

    /// Convenience: record a completed span ending now.
    #[allow(clippy::too_many_arguments)]
    pub fn span(&mut self, stage: u8, conn: u64, corr: u32, duration_nanos: u64, aux: u16) {
        let nanos = self.now_nanos();
        self.record(TraceEvent {
            nanos,
            duration_nanos,
            conn,
            corr,
            stage,
            lane: 0,
            aux,
        });
    }

    /// Records a lifecycle event: attributed to no request, never sampled
    /// out.
    pub(crate) fn lifecycle(&mut self, stage: TraceStage, duration_nanos: u64, aux: u16) {
        self.span(stage.code(), u64::MAX, u32::MAX, duration_nanos, aux);
    }

    /// Records one request's parse, queue-wait and measured `stages` spans
    /// (ring events for sampled requests only) and promotes the full
    /// breakdown to the slow-op log when the end-to-end span crosses the
    /// configured threshold (slow-op capture ignores sampling).
    ///
    /// The end-to-end span starts at the front-end's socket-readable stamp
    /// when present, else at the enqueue stamp, else at `dequeue_nanos` —
    /// so the per-stage durations (disjoint sub-intervals measured against
    /// the recorder epoch) always sum to at most the recorded total.
    pub fn request(&mut self, span: SpanCtx, dequeue_nanos: u64, stages: &[(TraceStage, u64)]) {
        let end_nanos = self.now_nanos();
        let queue_wait = match span.enqueue_nanos {
            0 => 0,
            enqueued => dequeue_nanos.saturating_sub(enqueued),
        };
        let front = [
            (TraceStage::Parse, span.parse_nanos),
            (TraceStage::QueueWait, queue_wait),
        ];
        let mut breakdown = [0u64; SLOW_STAGES];
        for &(stage, nanos) in front.iter().chain(stages) {
            breakdown[stage.code() as usize] = nanos;
            // A sampled request always shows its queue wait, even a zero one.
            if span.sampled && (nanos > 0 || stage == TraceStage::QueueWait) {
                self.span(stage.code(), span.conn, span.corr, nanos, 0);
            }
        }
        let start = [span.start_nanos, span.enqueue_nanos]
            .into_iter()
            .find(|&t| t > 0)
            .unwrap_or(dequeue_nanos);
        let total = end_nanos.saturating_sub(start);
        if total >= self.recorder.config.slow_nanos {
            self.recorder.record_slow(SlowOp {
                conn: span.conn,
                corr: span.corr,
                kind: span.kind,
                start_nanos: start,
                total_nanos: total,
                stages: breakdown,
            });
        }
    }
}

/// The shared flight recorder: lane registry, slow-op log, cumulative
/// per-stage totals and the passive [`dump`](FlightRecorder::dump).
pub struct FlightRecorder {
    config: TraceConfig,
    clock: Clock,
    lanes: Mutex<Vec<Arc<Lane>>>,
    slow: Mutex<std::collections::VecDeque<SlowOp>>,
    /// Cumulative (events, span nanos) per stage code, since creation.
    stage_counts: [AtomicU64; STAGE_COUNT],
    stage_nanos: [AtomicU64; STAGE_COUNT],
    slow_total: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with the given configuration.
    pub fn new(config: TraceConfig) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            config,
            clock: Clock::start(),
            lanes: Mutex::new(Vec::new()),
            slow: Mutex::new(std::collections::VecDeque::new()),
            stage_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            slow_total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// The recorder's configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Nanoseconds since the recorder epoch (monotonic, shared by every
    /// lane — cross-lane event times are directly comparable).
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The recorder's clock.
    pub(crate) fn clock(&self) -> Clock {
        self.clock
    }

    /// Registers a new writer lane for the calling thread.  Past
    /// [`MAX_LANES`] the writer is disarmed (its records are counted as
    /// dropped) so lane memory stays bounded no matter how many threads
    /// ask.
    pub fn writer(self: &Arc<FlightRecorder>) -> TraceWriter {
        let mut lanes = self.lanes.lock().expect("lane registry poisoned");
        let lane = if lanes.len() < MAX_LANES {
            let lane = Arc::new(Lane::new(self.config.ring_capacity.max(1)));
            lanes.push(Arc::clone(&lane));
            Some(((lanes.len() - 1) as u8, lane))
        } else {
            None
        };
        TraceWriter {
            recorder: Arc::clone(self),
            lane,
            next: 0,
        }
    }

    fn bump_stage(&self, stage: u8, nanos: u64) {
        if let Some(counter) = self.stage_counts.get(stage as usize) {
            counter.fetch_add(1, Ordering::Relaxed);
            self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Promotes a slow-op record to the retained log (oldest evicted at
    /// [`TraceConfig::slow_capacity`]).  Off the common path by
    /// definition — only requests over the threshold arrive here.
    pub fn record_slow(&self, op: SlowOp) {
        self.slow_total.fetch_add(1, Ordering::Relaxed);
        let mut slow = self.slow.lock().expect("slow log poisoned");
        if slow.len() >= self.config.slow_capacity.max(1) {
            slow.pop_front();
        }
        slow.push_back(op);
    }

    /// Total events recorded since creation (all stages).
    pub fn events_total(&self) -> u64 {
        self.stage_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total slow ops promoted since creation.
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Events dropped by disarmed writers (lane cap exceeded).
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Passive bounded dump: seqlock-validated ring snapshot (newest
    /// `max_events` across lanes, ordered by `(lane, nanos)` — exactly
    /// monotonic per lane), the retained slow ops, and the cumulative
    /// stage totals.  Never blocks writers, never allocates on their
    /// path, and never enqueues engine work; `slow_only` skips the ring
    /// scan entirely.
    pub fn dump(&self, max_events: usize, slow_only: bool) -> TraceDump {
        let mut events = Vec::new();
        if !slow_only && max_events > 0 {
            let lanes: Vec<Arc<Lane>> = self.lanes.lock().expect("lane registry poisoned").clone();
            let mut indexed: Vec<(u64, TraceEvent)> = Vec::new();
            for lane in &lanes {
                lane.snapshot(&mut indexed);
            }
            if indexed.len() > max_events {
                // Keep the newest events by end time, then restore the
                // canonical (lane, nanos) presentation order.
                indexed.sort_by_key(|(_, e)| e.nanos);
                let cut = indexed.len() - max_events;
                indexed.drain(..cut);
            }
            indexed.sort_by_key(|(index, e)| (e.lane, *index));
            events = indexed.into_iter().map(|(_, e)| e).collect();
        }
        let slow_ops: Vec<SlowOp> = {
            let slow = self.slow.lock().expect("slow log poisoned");
            slow.iter().copied().collect()
        };
        let mut stage_totals = [(0u64, 0u64); STAGE_COUNT];
        for (i, slot) in stage_totals.iter_mut().enumerate() {
            *slot = (
                self.stage_counts[i].load(Ordering::Relaxed),
                self.stage_nanos[i].load(Ordering::Relaxed),
            );
        }
        TraceDump {
            events,
            slow_ops,
            stage_totals,
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .field("events_total", &self.events_total())
            .field("slow_total", &self.slow_total())
            .finish()
    }
}

/// Per-request span context, stamped by the front-end when a sampled (or
/// potentially slow) frame is parsed and carried on the engine command so
/// the engine thread can attribute its stage timings to the request.
///
/// `Copy` and 40 bytes — attaching it to commands costs no allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Front-end connection id.
    pub conn: u64,
    /// Correlation id (`u32::MAX` = none).
    pub corr: u32,
    /// Request kind (protocol tag of the triggering frame).
    pub kind: u8,
    /// Whether this frame fell in the 1-in-N sample (ring events are
    /// emitted only for sampled frames; slow-op promotion ignores this).
    pub sampled: bool,
    /// Socket-readable time (nanos since recorder epoch) — the
    /// end-to-end span starts here.
    pub start_nanos: u64,
    /// Readable→parsed duration measured by the front-end.
    pub parse_nanos: u64,
    /// Enqueue time into the bounded command queue (queue wait ends at
    /// engine dequeue).
    pub enqueue_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::trace::TraceStage;

    fn event(n: u64) -> TraceEvent {
        TraceEvent {
            nanos: n,
            duration_nanos: n * 10,
            conn: 1,
            corr: n as u32,
            stage: TraceStage::Parse.code(),
            lane: 0,
            aux: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_dump_is_monotonic() {
        let rec = FlightRecorder::new(TraceConfig {
            sample: 1,
            ring_capacity: 8,
            ..TraceConfig::default()
        });
        let mut w = rec.writer();
        for n in 0..20 {
            w.record(event(n));
        }
        let dump = rec.dump(usize::MAX, false);
        let nanos: Vec<u64> = dump.events.iter().map(|e| e.nanos).collect();
        assert_eq!(nanos, (12..20).collect::<Vec<_>>());
        assert_eq!(rec.events_total(), 20);
    }

    #[test]
    fn dump_caps_to_newest_events() {
        let rec = FlightRecorder::new(TraceConfig {
            sample: 1,
            ring_capacity: 64,
            ..TraceConfig::default()
        });
        let mut w = rec.writer();
        for n in 0..50 {
            w.record(event(n));
        }
        let dump = rec.dump(10, false);
        assert_eq!(dump.events.len(), 10);
        assert_eq!(dump.events[0].nanos, 40);
        assert_eq!(dump.stage_totals[TraceStage::Parse.code() as usize].0, 50);
    }

    #[test]
    fn slow_log_is_bounded() {
        let rec = FlightRecorder::new(TraceConfig {
            sample: 1,
            slow_capacity: 4,
            ..TraceConfig::default()
        });
        for n in 0..10u64 {
            rec.record_slow(SlowOp {
                conn: n,
                corr: 0,
                kind: 1,
                start_nanos: n,
                total_nanos: 1,
                stages: [0; rtim_stream::trace::SLOW_STAGES],
            });
        }
        let dump = rec.dump(0, true);
        assert_eq!(dump.slow_ops.len(), 4);
        assert_eq!(dump.slow_ops[0].conn, 6);
        assert_eq!(rec.slow_total(), 10);
        assert!(dump.events.is_empty());
    }

    #[test]
    fn lane_cap_disarms_instead_of_growing() {
        let rec = FlightRecorder::new(TraceConfig {
            sample: 1,
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        let mut writers: Vec<TraceWriter> = (0..MAX_LANES + 3).map(|_| rec.writer()).collect();
        for w in &mut writers {
            w.record(event(1));
        }
        assert_eq!(rec.dropped_total(), 3);
        assert_eq!(writers[MAX_LANES].lane(), u8::MAX);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn enabled_follows_sample_rate() {
        assert!(!TraceConfig::default().is_enabled());
        assert!(TraceConfig::sampled(64, 50).is_enabled());
        assert_eq!(TraceConfig::sampled(64, 50).slow_nanos, 50_000_000);
    }
}

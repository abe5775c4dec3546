//! Server-side observability: log-scale latency histograms with
//! sliding-window quantiles, and the shared metrics registry the engine
//! thread, the front-ends and the `/metrics` scrape endpoint meet at.
//!
//! The design follows the paper's streaming discipline rather than a
//! general metrics library:
//!
//! * [`Histogram`] — 65 fixed power-of-two buckets over `u64` values
//!   (nanoseconds or queue depths).  Recording is one branch-free index
//!   computation plus two saturating adds; quantiles are answered from
//!   the bucket upper bounds, so p50/p95/p99 cost one pass over 65
//!   counters and never allocate.
//! * [`SlidingHistogram`] — a ring of `W` per-slide histograms rotated by
//!   the engine thread once per window slide.  A sample recorded in slide
//!   `s` is part of every aggregate up to and including slide `s + W − 1`
//!   and expires on the rotation that starts slide `s + W`: the window is
//!   *exactly* the last `W` slides, mirroring the engine's own
//!   sliding-window semantics instead of wall-clock decay.
//! * [`EngineMetrics`] — the registry: sliding histograms for feed time,
//!   query time and observed ingest-queue depth (rotated by the engine
//!   thread, one short mutex hold per slide; a query answered from the
//!   published answer records from its own thread), plain atomic counters for the
//!   front-end events that never touch the engine thread (parked
//!   requests, connection churn), and one copy of the latest
//!   [`EngineStats`], stored under the same mutex after every batch.
//!
//! Scraping is **passive**: [`EngineMetrics::render_prometheus`] reads
//! the registry and nothing else — it never enqueues an engine command —
//! so a scraper polling at any rate cannot reorder the arrival sequence
//! or otherwise perturb the served answers (the determinism suite pins
//! this with a scraper thread racing a 256-connection ingest).

use crate::engine::SlideReport;
use crate::handle::EngineStats;
use rtim_submodular::OracleCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket
/// `i ∈ 1..=64` holds values in `[2^(i−1), 2^i − 1]` (bucket 64's upper
/// bound saturates at `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Window of the sliding aggregation, in engine slides: quantiles answer
/// over the samples of the last this-many window slides.
pub const METRICS_WINDOW_SLIDES: usize = 256;

/// A fixed-size log₂-bucketed histogram of `u64` samples.
///
/// Buckets are powers of two, so the relative quantile error is bounded
/// by 2× — coarse for billing, exactly right for spotting a p99 that
/// moved an order of magnitude — and recording never allocates or
/// branches on data-dependent state.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    /// Saturating sum of every recorded sample (long soaks must degrade
    /// to a pinned maximum, not wrap).
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index a value lands in: 0 for an exact zero, else
    /// `64 − leading_zeros(v)` (so 1 → bucket 1, 2..=3 → bucket 2, …,
    /// values ≥ 2⁶³ → bucket 64).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The largest value bucket `index` can hold: 0 for bucket 0,
    /// `2^index − 1` otherwise (`u64::MAX` for bucket 64).
    #[inline]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of every recorded sample.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts (index = [`Histogram::bucket_index`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Clears every counter.
    pub fn clear(&mut self) {
        self.buckets = [0; HISTOGRAM_BUCKETS];
        self.count = 0;
        self.sum = 0;
    }

    /// Adds every sample of `other` into `self` (counts and sums
    /// saturate).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), answered as the **upper bound**
    /// of the bucket in which the rank-`⌈q·count⌉` sample lies — an upper
    /// estimate within 2× of the true sample.  `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= target {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }
}

/// A ring of per-slide [`Histogram`]s giving exact slide-count windowed
/// aggregation: rotate once per engine slide, aggregate on demand.
#[derive(Debug)]
pub struct SlidingHistogram {
    slots: Vec<Histogram>,
    head: usize,
}

impl SlidingHistogram {
    /// A window of `window` slides (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        SlidingHistogram {
            slots: vec![Histogram::new(); window.max(1)],
            head: 0,
        }
    }

    /// The configured window, in slides.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// Records one sample into the current slide's slot.
    pub fn record(&mut self, value: u64) {
        self.slots[self.head].record(value);
    }

    /// Starts a new slide: advances the ring and clears the slot the new
    /// slide will write into, expiring whatever was recorded exactly
    /// `window` slides ago.
    pub fn rotate(&mut self) {
        self.head = (self.head + 1) % self.slots.len();
        self.slots[self.head].clear();
    }

    /// Merges the whole window into one histogram.
    pub fn aggregate(&self) -> Histogram {
        let mut total = Histogram::new();
        for slot in &self.slots {
            total.merge(slot);
        }
        total
    }
}

/// The engine-thread side of the registry, behind one mutex: the three
/// sliding histograms share a rotation so "the last W slides" means the
/// same thing for every quantile, and the latest stats copy backs every
/// engine gauge.
struct MetricsInner {
    /// Per-slide feed time (resolution + window + checkpoint updates).
    feed: SlidingHistogram,
    /// Per-request query answer time.
    query: SlidingHistogram,
    /// Ingest-queue depth observed when each slide's batch was dequeued
    /// (only slides that crossed the queue are sampled — synchronous
    /// replays carry no depth).
    depth: SlidingHistogram,
    /// The engine's counters as of the last batch or `STATS` answer.
    stats: EngineStats,
    /// Oracle outcome counters summed over the live checkpoints, as of
    /// the last slide.
    oracle: OracleCounters,
}

/// Shared metrics registry of one engine pipeline.
///
/// Created by [`crate::EngineHandle::spawn`] and shared (`Arc`) between
/// the engine thread (histograms + stats copy), the server front-end
/// (connection/backpressure counters) and whatever serves `/metrics`
/// (reads only).  All methods take `&self`.
pub struct EngineMetrics {
    inner: Mutex<MetricsInner>,
    // ---- front-end event counters (never touch the engine thread) ----
    parked_requests: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    queries: AtomicU64,
    // ---- arena + tracing gauges (engine thread, refreshed per batch) ----
    arena_takes: AtomicU64,
    arena_hits: AtomicU64,
    trace_events: AtomicU64,
    trace_slow_ops: AtomicU64,
    propagation_retained: AtomicU64,
    propagation_bytes: AtomicU64,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new()
    }
}

impl EngineMetrics {
    /// A registry with the default [`METRICS_WINDOW_SLIDES`] window.
    pub fn new() -> Self {
        Self::with_window(METRICS_WINDOW_SLIDES)
    }

    /// A registry whose quantiles cover the last `window` slides.
    pub fn with_window(window: usize) -> Self {
        EngineMetrics {
            inner: Mutex::new(MetricsInner {
                feed: SlidingHistogram::new(window),
                query: SlidingHistogram::new(window),
                depth: SlidingHistogram::new(window),
                stats: EngineStats::default(),
                oracle: OracleCounters::default(),
            }),
            parked_requests: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            arena_takes: AtomicU64::new(0),
            arena_hits: AtomicU64::new(0),
            trace_events: AtomicU64::new(0),
            trace_slow_ops: AtomicU64::new(0),
            propagation_retained: AtomicU64::new(0),
            propagation_bytes: AtomicU64::new(0),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        // A poisoned registry would mean a panic mid-record; the counters
        // are still internally consistent (each record is atomic under
        // the lock), so keep serving them.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Engine thread: one completed slide.  Records its feed time and (if
    /// the batch crossed the ingest queue) its observed dequeue depth,
    /// then rotates the window — the slide boundary is the tick every
    /// sliding quantile shares.
    pub fn record_slide(&self, report: &SlideReport) {
        let mut inner = self.locked();
        inner.feed.record(report.feed_nanos);
        inner.oracle = report.oracle_counters;
        if let Some(depth) = report.queue_depth {
            inner.depth.record(depth as u64);
        }
        inner.feed.rotate();
        inner.query.rotate();
        inner.depth.rotate();
    }

    /// One answered query took `nanos` (on whichever thread answered it).
    pub fn record_query(&self, nanos: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.locked().query.record(nanos);
    }

    /// Engine thread: stores a finished stats snapshot (after each batch
    /// and on every STATS answer); every engine gauge reads this copy.
    pub fn observe_stats(&self, stats: &EngineStats) {
        self.locked().stats = *stats;
    }

    /// Engine thread: refreshes the bitmap-arena allocation gauges
    /// (cumulative word-vector takes and how many were served from the
    /// recycled free lists) from the pool's per-batch stats.
    pub fn observe_arena(&self, takes: u64, hits: u64) {
        self.arena_takes.store(takes, Ordering::Relaxed);
        self.arena_hits.store(hits, Ordering::Relaxed);
    }

    /// Engine thread: refreshes the flight-recorder visibility gauges
    /// (events recorded, slow ops promoted) so trace activity shows up on
    /// `/metrics` without scraping `/trace`.
    pub fn observe_trace(&self, events: u64, slow_ops: u64) {
        self.trace_events.store(events, Ordering::Relaxed);
        self.trace_slow_ops.store(slow_ops, Ordering::Relaxed);
    }

    /// Engine thread: refreshes the propagation-index memory gauges
    /// (records retained and the heap bytes of their store).
    pub fn observe_propagation(&self, retained: u64, bytes: u64) {
        self.propagation_retained.store(retained, Ordering::Relaxed);
        self.propagation_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Front-end: one request found the engine queue full and was parked
    /// until a slot freed.
    pub fn incr_parked_request(&self) {
        self.parked_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Front-end: one client connection was accepted.
    pub fn incr_connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Front-end: one client connection was closed.
    pub fn incr_connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests parked on a full queue so far.
    pub fn parked_requests(&self) -> u64 {
        self.parked_requests.load(Ordering::Relaxed)
    }

    /// Connections opened (accepted) so far.
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened.load(Ordering::Relaxed)
    }

    /// Connections closed so far.
    pub fn connections_closed(&self) -> u64 {
        self.connections_closed.load(Ordering::Relaxed)
    }

    /// Aggregated feed-time histogram over the current window.
    pub fn feed_histogram(&self) -> Histogram {
        self.locked().feed.aggregate()
    }

    /// Aggregated query-time histogram over the current window.
    pub fn query_histogram(&self) -> Histogram {
        self.locked().query.aggregate()
    }

    /// Aggregated queue-depth histogram over the current window.
    pub fn depth_histogram(&self) -> Histogram {
        self.locked().depth.aggregate()
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): three windowed summaries
    /// (`rtim_feed_nanos`, `rtim_query_nanos`, `rtim_queue_depth`) with
    /// p50/p95/p99 quantiles, the pipeline counters, and the
    /// durability/pool gauges.  Purely a read — never talks to the
    /// engine.
    pub fn render_prometheus(&self) -> String {
        let (feed, query, depth, stats, oracle) = {
            let inner = self.locked();
            (
                inner.feed.aggregate(),
                inner.query.aggregate(),
                inner.depth.aggregate(),
                inner.stats,
                inner.oracle,
            )
        };
        let mut out = String::with_capacity(4096);
        render_summary(
            &mut out,
            "rtim_feed_nanos",
            "Per-slide feed time in nanoseconds over the sliding window",
            &feed,
        );
        render_summary(
            &mut out,
            "rtim_query_nanos",
            "Per-query answer time in nanoseconds over the sliding window",
            &query,
        );
        render_summary(
            &mut out,
            "rtim_queue_depth",
            "Ingest-queue depth observed at batch dequeue over the sliding window",
            &depth,
        );
        let counters: [(&str, &str, u64); 13] = [
            ("rtim_actions_total", "Actions ingested", stats.actions),
            (
                "rtim_batches_total",
                "Ingest batches dequeued",
                stats.batches,
            ),
            ("rtim_slides_total", "Window slides fed", stats.slides),
            (
                "rtim_queries_total",
                "SIM queries answered",
                self.queries.load(Ordering::Relaxed),
            ),
            (
                "rtim_parked_requests_total",
                "Requests parked on a full queue (event-loop front-end)",
                self.parked_requests.load(Ordering::Relaxed),
            ),
            (
                "rtim_connections_opened_total",
                "Client connections accepted",
                self.connections_opened.load(Ordering::Relaxed),
            ),
            (
                "rtim_connections_closed_total",
                "Client connections closed",
                self.connections_closed.load(Ordering::Relaxed),
            ),
            (
                "rtim_orphaned_replies_total",
                "Replies degraded to roots (unknown or pruned parent)",
                stats.orphaned_replies,
            ),
            (
                "rtim_arena_takes_total",
                "Bitmap word-vectors requested from the slide arenas",
                self.arena_takes.load(Ordering::Relaxed),
            ),
            (
                "rtim_arena_hits_total",
                "Arena requests served from the recycled free lists",
                self.arena_hits.load(Ordering::Relaxed),
            ),
            (
                "rtim_trace_events_total",
                "Flight-recorder trace events recorded",
                self.trace_events.load(Ordering::Relaxed),
            ),
            (
                "rtim_trace_slow_ops_total",
                "Requests promoted to the slow-op log",
                self.trace_slow_ops.load(Ordering::Relaxed),
            ),
            (
                "rtim_shard_migrations_total",
                "Checkpoints migrated between pool shards",
                stats.shard_migrations,
            ),
        ];
        for (name, help, value) in counters {
            render_scalar(&mut out, name, help, "counter", value);
        }
        let gauges: [(&str, &str, u64); 11] = [
            (
                "rtim_queue_depth_current",
                "Commands waiting in the ingest queue now",
                stats.queue_depth,
            ),
            (
                "rtim_queue_depth_max",
                "Maximum queue depth observed at any dequeue",
                stats.max_queue_depth,
            ),
            (
                "rtim_checkpoints",
                "Checkpoints currently maintained",
                stats.checkpoints,
            ),
            ("rtim_users", "Distinct users interned", stats.users),
            (
                "rtim_oracle_updates_total",
                "Oracle element updates performed",
                stats.oracle_updates,
            ),
            (
                "rtim_shard_ewma_min_nanos",
                "Smallest per-shard feed-time EWMA",
                stats.shard_ewma_min_nanos,
            ),
            (
                "rtim_shard_ewma_max_nanos",
                "Largest per-shard feed-time EWMA",
                stats.shard_ewma_max_nanos,
            ),
            (
                "rtim_journal_lag_batches",
                "Ingested batches whose journal persistence is not yet guaranteed",
                stats.journal_lag_batches,
            ),
            (
                "rtim_snapshot_age_slides",
                "Window slides since the last successful snapshot",
                stats.snapshot_age_slides,
            ),
            (
                "rtim_propagation_retained_actions",
                "Actions whose reply-ancestry record the propagation index retains",
                self.propagation_retained.load(Ordering::Relaxed),
            ),
            (
                "rtim_propagation_bytes",
                "Heap bytes of the propagation index's record store",
                self.propagation_bytes.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in gauges {
            render_scalar(&mut out, name, help, "gauge", value);
        }
        // Sums over the live checkpoints, like `rtim_oracle_updates_total`
        // above: they fall when a checkpoint expires, hence gauges.
        let outcomes: [(&str, &str, u64); 5] = [
            (
                "rtim_oracle_elements_total",
                "Oracle elements processed",
                oracle.elements,
            ),
            (
                "rtim_oracle_loop_skips_total",
                "Oracle elements whose whole admission loop was skipped",
                oracle.loop_skips,
            ),
            (
                "rtim_oracle_bound_rejections_total",
                "Oracle admission tests rejected by a cached gain bound",
                oracle.bound_rejections,
            ),
            (
                "rtim_oracle_gain_passes_total",
                "Oracle marginal-gain passes over an instance's coverage",
                oracle.gain_passes,
            ),
            (
                "rtim_oracle_admissions_total",
                "Oracle elements admitted as an instance seed",
                oracle.admissions,
            ),
        ];
        for (name, help, value) in outcomes {
            render_scalar(&mut out, name, help, "gauge", value);
        }
        render_scalar(
            &mut out,
            "rtim_durability_state",
            "Durability state: 0 disabled, 1 durable, 2 degraded",
            "gauge",
            stats.durability_state,
        );
        out
    }
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics")
            .field("parked_requests", &self.parked_requests())
            .finish()
    }
}

/// The quantiles every summary exposes.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

fn render_summary(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} summary");
    for (q, label) in QUANTILES {
        // An empty window renders NaN, the Prometheus convention for an
        // unknown quantile.
        match hist.quantile(q) {
            Some(v) => drop(writeln!(out, "{name}{{quantile=\"{label}\"}} {v}")),
            None => drop(writeln!(out, "{name}{{quantile=\"{label}\"}} NaN")),
        }
    }
    let _ = writeln!(out, "{name}_sum {}", hist.sum());
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

fn render_scalar(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_are_inclusive_maxima() {
        for i in 0..HISTOGRAM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(ub), i, "upper bound of bucket {i}");
            if i < 64 {
                assert_eq!(Histogram::bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn quantiles_answer_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        // p50 → rank 3 (value 30, bucket 5, upper bound 31).
        assert_eq!(h.quantile(0.5), Some(31));
        // p99 → rank 5 (value 1000, bucket 10, upper bound 1023).
        assert_eq!(h.quantile(0.99), Some(1023));
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn record_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn sliding_window_expires_after_exactly_w_rotations() {
        let w = 4;
        let mut s = SlidingHistogram::new(w);
        s.record(42);
        for i in 1..w {
            s.rotate();
            assert_eq!(s.aggregate().count(), 1, "survives rotation {i}");
        }
        s.rotate(); // the W-th rotation expires the sample
        assert_eq!(s.aggregate().count(), 0);
    }

    #[test]
    fn registry_renders_required_metric_names() {
        let metrics = EngineMetrics::with_window(8);
        metrics.record_slide(&SlideReport {
            actions: 10,
            feed_nanos: 1234,
            queue_depth: Some(3),
            oracle_counters: OracleCounters {
                elements: 50,
                loop_skips: 30,
                bound_rejections: 4,
                gain_passes: 12,
                admissions: 2,
            },
            ..SlideReport::default()
        });
        metrics.record_query(5678);
        metrics.incr_parked_request();
        metrics.observe_arena(100, 90);
        metrics.observe_trace(7, 2);
        metrics.observe_propagation(41, 4096);
        let text = metrics.render_prometheus();
        for needle in [
            "rtim_feed_nanos{quantile=\"0.5\"}",
            "rtim_feed_nanos{quantile=\"0.95\"}",
            "rtim_feed_nanos{quantile=\"0.99\"}",
            "rtim_query_nanos{quantile=\"0.99\"}",
            "rtim_queue_depth{quantile=\"0.99\"}",
            "rtim_parked_requests_total 1",
            "rtim_journal_lag_batches",
            "rtim_snapshot_age_slides",
            "rtim_durability_state",
            "rtim_arena_takes_total 100",
            "rtim_arena_hits_total 90",
            "rtim_trace_events_total 7",
            "rtim_trace_slow_ops_total 2",
            "rtim_oracle_elements_total 50",
            "rtim_oracle_loop_skips_total 30",
            "rtim_oracle_bound_rejections_total 4",
            "rtim_oracle_gain_passes_total 12",
            "rtim_oracle_admissions_total 2",
            "rtim_propagation_retained_actions 41",
            "rtim_propagation_bytes 4096",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Every exposed family carries HELP and TYPE lines.
        assert!(text.contains("# TYPE rtim_feed_nanos summary"));
        assert!(text.contains("# TYPE rtim_actions_total counter"));
        // Migrations only ever accumulate (`ShardPool` adds one per move).
        assert!(text.contains("# TYPE rtim_shard_migrations_total counter"));
        assert!(text.contains("# TYPE rtim_durability_state gauge"));
        // A prune shrinks the propagation store, so its figures are gauges.
        assert!(text.contains("# TYPE rtim_propagation_retained_actions gauge"));
        assert!(text.contains("# TYPE rtim_propagation_bytes gauge"));
        // The live-checkpoint oracle sums fall when a checkpoint expires,
        // so they are gauges whatever their suffix says.
        for name in [
            "rtim_oracle_updates_total",
            "rtim_oracle_elements_total",
            "rtim_oracle_loop_skips_total",
            "rtim_oracle_bound_rejections_total",
            "rtim_oracle_gain_passes_total",
            "rtim_oracle_admissions_total",
        ] {
            let type_line = format!("# TYPE {name} gauge");
            assert!(text.contains(&type_line), "missing {type_line:?}");
        }
        // Every sample line is `name[{labels}] value` with a numeric value.
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (_, value) = line.rsplit_once(' ').expect("sample line without value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn offline_slides_contribute_no_depth_samples() {
        let metrics = EngineMetrics::with_window(8);
        metrics.record_slide(&SlideReport {
            feed_nanos: 100,
            queue_depth: None,
            ..SlideReport::default()
        });
        assert_eq!(metrics.feed_histogram().count(), 1);
        assert_eq!(metrics.depth_histogram().count(), 0);
    }
}

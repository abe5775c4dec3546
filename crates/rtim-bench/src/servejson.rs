//! Machine-readable serving-performance reports (`BENCH_serve.json`).
//!
//! `bench_feed` tracks the *in-process* feed path; the serving workload
//! adds framing, loopback TCP, the bounded queue and backpressure on top.
//! [`ServeBenchReport`] captures one run of the `bench_serve` binary: per
//! configuration (framework × front-end × connections × in-flight window
//! × pool threads) the sustained end-to-end ingest rate over loopback,
//! the engine-side feed time, and the queue behaviour (max depth, busy
//! retries).
//!
//! Like `BENCH_feed.json`, the document is written by a small hand-rolled
//! writer (the vendored `serde` is a no-op stub) and versioned via the
//! `schema` field.  Schema `rtim-bench-serve/v2` adds the `front_end`,
//! `connections` and `in_flight` fields for the readiness-driven
//! multiplexed front-end (v1's `clients` is renamed `connections`);
//! schema `rtim-bench-serve/v3` adds the `scrapes` field — the number of
//! `/metrics` scrapes a sidecar-polling thread completed (and validated
//! as well-formed Prometheus text) concurrently with the measured run,
//! `0` for runs without a scraper; schema `rtim-bench-serve/v4` adds the
//! per-stage tracing breakdown sourced from a wire `TRACE` dump taken at
//! the end of the run — `stage_*_nanos` are the cumulative sampled span
//! nanoseconds per pipeline stage, `trace_events` the total spans
//! recorded and `slow_ops` the retained slow-op count (all `0` for runs
//! without tracing).  CI smoke-runs the emission path.

use rtim_core::EngineStats;
use rtim_stream::trace::{TraceDump, TraceStage};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema identifier of the emitted JSON document.
pub const SERVE_SCHEMA: &str = "rtim-bench-serve/v4";

/// The fixed configuration of one served run, before it executes.
#[derive(Debug, Clone)]
pub struct ServeSetup {
    /// Run label, e.g. `"sic_el_x64_w16_t1"`.
    pub name: String,
    /// Framework name (`"SIC"` / `"IC"`).
    pub framework: String,
    /// Server front-end (always `"event-loop"`; kept for the v4 schema).
    pub front_end: String,
    /// Worker threads backing the checkpoint set (1 = sequential).
    pub threads: usize,
    /// Concurrent client connections (sockets, not driver threads).
    pub connections: usize,
    /// Pipelined `INGEST` frames in flight per connection (1 = lockstep).
    pub in_flight: usize,
    /// Actions per `INGEST` frame.
    pub batch: usize,
    /// Bounded queue capacity (commands).
    pub capacity: usize,
}

impl ServeSetup {
    /// Assembles the run record from the drained server stats.
    pub fn finish(
        self,
        stats: &EngineStats,
        wall_nanos: u64,
        busy_retries: u64,
        queries: u64,
    ) -> ServeRun {
        let wall_secs = wall_nanos as f64 / 1e9;
        ServeRun {
            setup: self,
            actions: stats.actions,
            wall_nanos,
            actions_per_sec: if wall_secs > 0.0 {
                stats.actions as f64 / wall_secs
            } else {
                0.0
            },
            feed_nanos: stats.feed_nanos,
            query_nanos: stats.query_nanos,
            max_queue_depth: stats.max_queue_depth,
            busy_retries,
            queries,
            scrapes: 0,
            stage_parse_nanos: 0,
            stage_queue_wait_nanos: 0,
            stage_journal_nanos: 0,
            stage_resolve_nanos: 0,
            stage_shard_feed_nanos: 0,
            stage_oracle_query_nanos: 0,
            stage_reply_drain_nanos: 0,
            trace_events: 0,
            slow_ops: 0,
        }
    }
}

/// One served run: N loopback connections streaming into one server.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The configuration that produced this run.
    pub setup: ServeSetup,
    /// Total actions acknowledged and processed.
    pub actions: u64,
    /// Wall-clock nanoseconds of the measured phase.  Baseline-grid runs
    /// clock first ingest to drained shutdown; connection-scaling runs
    /// clock the serving phase only (first frame to last `ACK`), since
    /// the engine drain is identical across front-end configurations.
    pub wall_nanos: u64,
    /// Sustained rate over the measured phase: actions per second.
    pub actions_per_sec: f64,
    /// Engine-side feed nanoseconds (resolution + window + checkpoints).
    pub feed_nanos: u64,
    /// Engine-side query nanoseconds.
    pub query_nanos: u64,
    /// Maximum queue depth observed at any dequeue.
    pub max_queue_depth: u64,
    /// `BUSY` replies absorbed by the clients (always 0: the server parks
    /// instead of bouncing; kept for the v4 schema).
    pub busy_retries: u64,
    /// Mid-run `QUERY` round-trips issued by the observer client.
    pub queries: u64,
    /// `/metrics` scrapes completed (and validated as well-formed
    /// Prometheus text) concurrently with the run; `0` when no scraper
    /// polled the sidecar.
    pub scrapes: u64,
    /// Cumulative sampled parse-span nanoseconds (v4, `0` untraced).
    pub stage_parse_nanos: u64,
    /// Cumulative sampled queue-wait nanoseconds (v4, `0` untraced).
    pub stage_queue_wait_nanos: u64,
    /// Cumulative sampled journal-append nanoseconds (v4, `0` untraced).
    pub stage_journal_nanos: u64,
    /// Cumulative sampled resolve nanoseconds (v4, `0` untraced).
    pub stage_resolve_nanos: u64,
    /// Cumulative sampled shard fan-out nanoseconds (v4, `0` untraced).
    pub stage_shard_feed_nanos: u64,
    /// Cumulative sampled oracle-query nanoseconds (v4, `0` untraced).
    pub stage_oracle_query_nanos: u64,
    /// Cumulative sampled reply-drain nanoseconds (v4, `0` untraced).
    pub stage_reply_drain_nanos: u64,
    /// Total spans recorded across all stages (v4, `0` untraced).
    pub trace_events: u64,
    /// Slow ops retained at the end of the run (v4, `0` untraced).
    pub slow_ops: u64,
}

impl ServeRun {
    /// Stamps the concurrent-scrape count (see [`ServeRun::scrapes`]).
    pub fn with_scrapes(mut self, scrapes: u64) -> Self {
        self.scrapes = scrapes;
        self
    }

    /// Stamps the v4 per-stage tracing breakdown from a wire `TRACE`
    /// dump taken at the end of the run.
    pub fn with_trace(mut self, dump: &TraceDump) -> Self {
        let nanos = |stage: TraceStage| dump.stage_totals[stage.code() as usize].1;
        self.stage_parse_nanos = nanos(TraceStage::Parse);
        self.stage_queue_wait_nanos = nanos(TraceStage::QueueWait);
        self.stage_journal_nanos = nanos(TraceStage::JournalAppend);
        self.stage_resolve_nanos = nanos(TraceStage::Resolve);
        self.stage_shard_feed_nanos = nanos(TraceStage::ShardFeed);
        self.stage_oracle_query_nanos = nanos(TraceStage::OracleQuery);
        self.stage_reply_drain_nanos = nanos(TraceStage::ReplyDrain);
        self.trace_events = dump.stage_totals.iter().map(|&(count, _)| count).sum();
        self.slow_ops = dump.slow_ops.len() as u64;
        self
    }
}

/// The complete `BENCH_serve.json` document.
#[derive(Debug, Clone, Default)]
pub struct ServeBenchReport {
    /// Served runs, in execution order.
    pub runs: Vec<ServeRun>,
}

impl ServeBenchReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the document as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SERVE_SCHEMA));
        out.push_str("  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}, ", json_str(&run.setup.name));
            let _ = write!(out, "\"framework\": {}, ", json_str(&run.setup.framework));
            let _ = write!(out, "\"front_end\": {}, ", json_str(&run.setup.front_end));
            let _ = write!(out, "\"threads\": {}, ", run.setup.threads);
            let _ = write!(out, "\"connections\": {}, ", run.setup.connections);
            let _ = write!(out, "\"in_flight\": {}, ", run.setup.in_flight);
            let _ = write!(out, "\"batch\": {}, ", run.setup.batch);
            let _ = write!(out, "\"capacity\": {}, ", run.setup.capacity);
            let _ = write!(out, "\"actions\": {}, ", run.actions);
            let _ = write!(out, "\"wall_nanos\": {}, ", run.wall_nanos);
            let _ = write!(out, "\"actions_per_sec\": {}, ", json_f64(run.actions_per_sec));
            let _ = write!(out, "\"feed_nanos\": {}, ", run.feed_nanos);
            let _ = write!(out, "\"query_nanos\": {}, ", run.query_nanos);
            let _ = write!(out, "\"max_queue_depth\": {}, ", run.max_queue_depth);
            let _ = write!(out, "\"busy_retries\": {}, ", run.busy_retries);
            let _ = write!(out, "\"queries\": {}, ", run.queries);
            let _ = write!(out, "\"scrapes\": {}, ", run.scrapes);
            let _ = write!(out, "\"stage_parse_nanos\": {}, ", run.stage_parse_nanos);
            let _ = write!(
                out,
                "\"stage_queue_wait_nanos\": {}, ",
                run.stage_queue_wait_nanos
            );
            let _ = write!(out, "\"stage_journal_nanos\": {}, ", run.stage_journal_nanos);
            let _ = write!(out, "\"stage_resolve_nanos\": {}, ", run.stage_resolve_nanos);
            let _ = write!(
                out,
                "\"stage_shard_feed_nanos\": {}, ",
                run.stage_shard_feed_nanos
            );
            let _ = write!(
                out,
                "\"stage_oracle_query_nanos\": {}, ",
                run.stage_oracle_query_nanos
            );
            let _ = write!(
                out,
                "\"stage_reply_drain_nanos\": {}, ",
                run.stage_reply_drain_nanos
            );
            let _ = write!(out, "\"trace_events\": {}, ", run.trace_events);
            let _ = write!(out, "\"slow_ops\": {}", run.slow_ops);
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the document to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes the labels here can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; those become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(actions: u64) -> EngineStats {
        EngineStats {
            actions,
            feed_nanos: 1_000,
            max_queue_depth: 7,
            ..EngineStats::default()
        }
    }

    fn setup(name: &str, framework: &str, connections: usize, in_flight: usize) -> ServeSetup {
        ServeSetup {
            name: name.into(),
            framework: framework.into(),
            front_end: "event-loop".into(),
            threads: 1,
            connections,
            in_flight,
            batch: 500,
            capacity: 64,
        }
    }

    #[test]
    fn run_derives_sustained_rate() {
        let run = setup("sic_el_x4_w1_t1", "SIC", 4, 1).finish(&stats(1_000), 2_000_000_000, 3, 9);
        assert_eq!(run.actions, 1_000);
        assert_eq!(run.actions_per_sec, 500.0);
        assert_eq!(run.max_queue_depth, 7);
        assert_eq!(run.busy_retries, 3);
        assert_eq!(run.setup.connections, 4);
    }

    #[test]
    fn json_carries_schema_and_v4_fields() {
        let mut dump = TraceDump::default();
        dump.stage_totals[TraceStage::Parse.code() as usize] = (3, 111);
        dump.stage_totals[TraceStage::QueueWait.code() as usize] = (3, 222);
        dump.stage_totals[TraceStage::OracleQuery.code() as usize] = (1, 333);
        dump.slow_ops.push(rtim_stream::trace::SlowOp {
            conn: 1,
            corr: 2,
            kind: 0x01,
            start_nanos: 0,
            total_nanos: 999,
            stages: [0; rtim_stream::trace::SLOW_STAGES],
        });
        let mut report = ServeBenchReport::new();
        report.runs.push(
            setup("sic_el_x64_w16_t1", "SIC", 64, 16)
                .finish(&stats(42), 1, 0, 1)
                .with_scrapes(12)
                .with_trace(&dump),
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"rtim-bench-serve/v4\""));
        assert!(json.contains("\"name\": \"sic_el_x64_w16_t1\""));
        assert!(json.contains("\"front_end\": \"event-loop\""));
        assert!(json.contains("\"connections\": 64"));
        assert!(json.contains("\"in_flight\": 16"));
        assert!(json.contains("\"actions\": 42"));
        assert!(json.contains("\"scrapes\": 12"));
        assert!(json.contains("\"stage_parse_nanos\": 111"));
        assert!(json.contains("\"stage_queue_wait_nanos\": 222"));
        assert!(json.contains("\"stage_oracle_query_nanos\": 333"));
        assert!(json.contains("\"stage_journal_nanos\": 0"));
        assert!(json.contains("\"trace_events\": 7"));
        assert!(json.contains("\"slow_ops\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn untraced_runs_emit_zeroed_stage_fields() {
        let run = setup("x", "SIC", 1, 1).finish(&stats(5), 1, 0, 0);
        let json = ServeBenchReport { runs: vec![run] }.to_json();
        assert!(json.contains("\"stage_parse_nanos\": 0"));
        assert!(json.contains("\"stage_reply_drain_nanos\": 0"));
        assert!(json.contains("\"trace_events\": 0"));
        assert!(json.contains("\"slow_ops\": 0"));
    }

    #[test]
    fn zero_wall_time_is_not_a_division_crash() {
        let run = setup("x", "SIC", 1, 1).finish(&stats(5), 0, 0, 0);
        assert_eq!(run.actions_per_sec, 0.0);
        assert!(ServeBenchReport { runs: vec![run] }.to_json().contains("\"actions_per_sec\": 0"));
    }
}
